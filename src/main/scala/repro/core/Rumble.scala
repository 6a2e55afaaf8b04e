package repro.core

import org.apache.spark.SparkException
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._
import repro.core.json.JsonWriter
import repro.core.model._
import repro.core.parser.Parser
import repro.core.runtime.{DynamicContext, RumbleConf, RuntimeIterator}
import repro.core.semantics.Translator

/** Public façade of the engine (paper §5.1): lexer/parser → expression tree
  * → runtime iterators → execution, local or on Spark, chosen dynamically.
  *
  * The same entry point serves Rumble proper and — with
  * `conf.forceLocal = true` — the single-threaded JSONiq engine stand-ins
  * used by the §6.3 comparison.
  */
final class Rumble(spark: SparkSession, conf: RumbleConf = RumbleConf()) {

  private def rootCtx: DynamicContext = DynamicContext.root(conf)

  /** Runs `body`, rethrowing a JSONiq error raised inside a Spark task as
    * itself rather than as the `SparkException` that reports the failed
    * job, so a query fails with the same error code on every path. */
  private def unwrapped[A](body: => A): A =
    try body
    catch {
      case e: SparkException =>
        throw Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
          .collectFirst { case r: RumbleException => r }
          .getOrElse(e)
    }

  /** Parse + static-check + translate a query to its root runtime iterator. */
  def compile(query: String): RuntimeIterator = Translator.translate(Parser.parse(query))

  /** Evaluate and stream the result items (RDDs are collected through the
    * local API with the configured materialization cap, §5.5). */
  def runIterator(query: String): Iterator[Item] = {
    val it = unwrapped(compile(query).localIterator(rootCtx))
    new Iterator[Item] {
      def hasNext: Boolean = unwrapped(it.hasNext)
      def next(): Item     = unwrapped(it.next())
    }
  }

  /** Evaluate and materialize the full result. */
  def run(query: String): List[Item] = runIterator(query).toList

  /** Evaluate for the number of result items without materializing them on
    * the driver (see `RuntimeIterator.count`). */
  def runCount(query: String): Long = unwrapped(compile(query).count(rootCtx))

  /** The result as an RDD of items; local results are parallelized. */
  def runToRdd(query: String): RDD[Item] = unwrapped {
    val it  = compile(query)
    val ctx = rootCtx
    if (it.isRDD(ctx)) it.getRDD(ctx)
    else spark.sparkContext.parallelize(it.materialize(ctx))
  }

  /** Write the result back as a JSON-Lines directory (parallel when the
    * result is an RDD, §5.4: "Rumble can directly write the results back"). */
  def writeJsonLines(query: String, path: String): Unit =
    unwrapped(runToRdd(query).map(JsonWriter.write).saveAsTextFile(path))

  /** Materialize a (small) result of *object* items as a typed DataFrame —
    * used to compare query results against the DuckDB oracle. Columns are
    * the union of keys in first-seen order; a column is LongType if every
    * present value is an integer, DoubleType if every present value is
    * numeric, BooleanType likewise, else StringType. */
  def runToDataFrame(query: String): DataFrame = {
    val items = run(query)
    Rumble.itemsToDataFrame(spark, items)
  }
}

object Rumble {

  def itemsToDataFrame(spark: SparkSession, items: Seq[Item]): DataFrame = {
    val objects = items.map {
      case o: ObjectItem => o
      case other =>
        throw new RumbleException("RBML0003", s"runToDataFrame needs object items, got $other")
    }
    val cols = {
      val seen = scala.collection.mutable.LinkedHashSet.empty[String]
      objects.foreach(_.keys.foreach(seen.add))
      seen.toVector
    }
    def colType(values: Seq[Item]): DataType = {
      val present = values.filterNot(_.isNull)
      if (present.nonEmpty && present.forall(_.isInteger)) LongType
      else if (present.nonEmpty && present.forall(_.isNumeric)) DoubleType
      else if (present.nonEmpty && present.forall(_.isBoolean)) BooleanType
      else StringType
    }
    val types = cols.map(c => colType(objects.flatMap(_.lookup(c))))
    val schema = StructType(cols.zip(types).map { case (c, t) =>
      StructField(c, t, nullable = true)
    })
    val rows = objects.map { o =>
      Row.fromSeq(cols.zip(types).map { case (c, t) =>
        o.lookup(c) match {
          case None | Some(NullItem) => null
          case Some(v) =>
            t match {
              case LongType    => v.numericDouble.toLong
              case DoubleType  => v.numericDouble
              case BooleanType => v.booleanValue
              case _ =>
                v match {
                  case s: StringItem        => s.stringValue
                  case a if a.isAtomic      => a.castToString
                  case other                => repro.core.json.JsonWriter.write(other)
                }
            }
        }
      })
    }
    spark.createDataFrame(spark.sparkContext.parallelize(rows.toSeq, 1), schema)
  }
}
