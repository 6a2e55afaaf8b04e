package repro.perfbench

import java.io.File
import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.charset.StandardCharsets.UTF_8
import org.apache.spark.perfbench.ListenerDrain
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.types.{BinaryType, StringType}
import repro.bench.Harness
import repro.core.Rumble
import repro.core.json.{JsonParser, JsonWriter}
import repro.core.model.{Item, ItemSerde}
import repro.core.runtime.{DynamicContext, RumbleConf}
import scala.jdk.CollectionConverters._
import scala.util.{Failure, Success, Try}

/** One timed query: wall seconds, its Spark work, peak heap while it ran,
  * bytes it left persisted, the size of its result, and why it failed. */
final case class Sample(traced: Boolean, seconds: Double, spark: GroupCounters, heapMb: Double,
                        persistMb: Double, items: Long, outBytes: Long, error: Option[String])

/** One clause prefix of the query, forced in full: its last clause, median
  * seconds, tuples out and summed cell bytes (when it is a DataFrame). */
final case class Prefix(clause: String, seconds: Double, tuples: Long, cellBytes: Option[Long])

/** Runs one workload's query through the public `Rumble` API, one query at
  * a time, checking every result, and measures the layers beneath it. */
final class Bench(spark: SparkSession, val w: Workload, seed: Long, workDir: String) {

  private val sc       = spark.sparkContext
  private val rumble   = new Rumble(spark)
  private val counters = new SparkCounters
  val tracer           = new Tracer
  sc.addSparkListener(counters)

  private var input: String = _
  private var ref: w.Ref    = _
  private var samples       = 0
  private def outDir        = s"$workDir/out"

  def inputPath: String = input
  def query: String     = w.query(input)

  /** One set-up round: generate the input into a fresh directory and fold
    * the reference over it, which also pulls it into the page cache. */
  def setupRound(i: Int): Double = Bench.seconds {
    input = w.generate(spark, s"$workDir/input-$i", w.objects, seed)
    ref = w.reference(spark, input)
  }

  private def runPlain(q: String): Any =
    if (w.writes) rumble.writeJsonLines(q, outDir) else rumble.run(q)

  /** The calls `Rumble.run` / `Rumble.writeJsonLines` make, with a span
    * around each layer: compile (parser and translator), plan (building
    * the RDD and DataFrame lineage) and execute (the Spark action). */
  private def runTraced(parent: Int, sample: Int): Any = {
    val it  = tracer("compile", parent, sample)(rumble.compile(query))
    val ctx = DynamicContext.root(RumbleConf())
    if (!it.isRDD(ctx)) tracer("execute", parent, sample)(runPlain(query))
    else {
      val rdd = tracer("plan", parent, sample)(it.getRDD(ctx))
      tracer("execute", parent, sample) {
        if (w.writes) rdd.map(JsonWriter.write).saveAsTextFile(outDir)
        else rdd.toLocalIterator.toList
      }
    }
  }

  private def output(result: Any): Output = result match {
    case items: List[_] => Items(items.map(i => JsonWriter.write(i.asInstanceOf[Item])).toVector)
    case _              => Written(outDir)
  }

  /** (items, bytes) of a result. */
  private def size(out: Output): (Long, Long) = out match {
    case Items(ls) => (ls.size.toLong, ls.map(_.length.toLong).sum)
    case Written(d) =>
      val parts = Option(new File(d).listFiles()).toVector.flatten.filter(_.getName.startsWith("part-"))
      (parts.map(f => java.nio.file.Files.lines(f.toPath).count()).sum, parts.map(_.length).sum)
  }

  /** Run and check the query once, in its own Spark job group. */
  def sample(traced: Boolean): Sample = {
    samples += 1
    val id    = samples
    val group = s"sample-$id"
    val root  = if (traced) tracer.open("sample", -1, id) else -1
    val q     = if (traced) tracer.open("query", root, id) else -1
    Heap.resetPeaks()
    sc.setJobGroup(group, w.name)
    val t0     = System.nanoTime()
    val result = Try(if (traced) runTraced(q, id) else runPlain(query))
    val secs   = (System.nanoTime() - t0) / 1e9
    sc.clearJobGroup()
    val heapMb = Heap.peakMb
    if (traced) tracer.close(q)
    val out = result.map(output)
    def verify = out match {
      case Failure(e) => Some(s"query failed: $e")
      case Success(o) => Try(w.check(spark, ref, o)).fold(e => Some(s"check failed: $e"), identity)
    }
    val error = if (traced) tracer("verify", root, id)(verify) else verify
    if (traced) tracer.close(root)
    val (items, bytes) = out.map(size).getOrElse((0L, 0L))
    ListenerDrain(sc)
    val c = counters.take(group)
    if (traced) addSparkSpans(c, q, id)
    val persistMb = sc.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum / Bench.MB
    spark.catalog.clearCache()
    Harness.deleteRecursively(new File(outDir))
    Sample(traced, secs, c, heapMb, persistMb, items, bytes, error)
  }

  /** File each job under the layer span it started in, each stage under
    * its job. */
  private def addSparkSpans(c: GroupCounters, query: Int, sample: Int): Unit = {
    val layers = tracer.all.filter(_.parent == query)
    val jobs = c.jobSpans.map { case (job, s, e) =>
      val start  = tracer.fromEpochMs(s)
      val parent = layers.filter(_.start <= start + 1000000L).lastOption.fold(query)(_.id)
      job -> tracer.add("job", parent, sample, start, tracer.fromEpochMs(e))
    }.toMap
    c.stageSpans.foreach { case (_, job, s, e) =>
      tracer.add("stage", jobs.getOrElse(job, query), sample, tracer.fromEpochMs(s), tracer.fromEpochMs(e))
    }
  }

  /** Samples for at least `seconds` and `min` samples; `traced(i)` says
    * whether the i-th is traced. */
  def measure(seconds: Double, min: Int)(traced: Int => Boolean): Vector[Sample] = {
    val end = System.nanoTime() + (seconds * 1e9).toLong
    val out = Vector.newBuilder[Sample]
    var i   = 0
    while (System.nanoTime() < end || i < min) { out += sample(traced(i)); i += 1 }
    out.result()
  }

  /** Median seconds of `reps` runs of `f` and its last value; cached
    * blocks are dropped after each run. */
  def timed[T](reps: Int)(f: => T): (Double, T) = {
    val runs = (1 to reps).map { _ =>
      val r = Harness.time(f)
      spark.catalog.clearCache()
      r
    }
    (Harness.median(runs.map(_._2)), runs.last._1)
  }

  // ------------------------------------------------------------ layers

  /** Single-threaded microbenchmarks of the item layers on the workload's
    * own first `records` input lines: JSON parse and write, and the
    * tuple-cell serde. */
  def micro(records: Int): Seq[(String, Double, String)] = {
    val lines   = sc.textFile(input).take(records)
    val k       = lines.length
    val inBytes = lines.map(_.getBytes(UTF_8).length.toLong).sum
    val items   = new Array[Item](k)
    val encoded = new Array[Array[Byte]](k)
    var outChars, sink = 0L
    val parse = Bench.passes { var i = 0; while (i < k) { items(i) = JsonParser.parseLine(lines(i)); i += 1 } }
    val write = Bench.passes {
      var i = 0; var c = 0L
      while (i < k) { c += JsonWriter.write(items(i)).length; i += 1 }
      outChars = c
    }
    val encode = Bench.passes { var i = 0; while (i < k) { encoded(i) = ItemSerde.serializeItem(items(i)); i += 1 } }
    val decode = Bench.passes {
      var i = 0; while (i < k) { sink += ItemSerde.deserializeSeq(encoded(i)).size; i += 1 }
    }
    require(sink > 0 && items.forall(_ != null))
    Seq(
      ("json.parse_mb_s", inBytes / Bench.MB / parse, "MB/s"),
      ("json.parse_ns_per_record", parse * 1e9 / k, "ns"),
      // the generated data is ASCII, so characters written are bytes
      ("json.write_mb_s", outChars / Bench.MB / write, "MB/s"),
      ("serde.encode_ns_per_item", encode * 1e9 / k, "ns"),
      ("serde.decode_ns_per_item", decode * 1e9 / k, "ns"),
      ("serde.bytes_per_item", encoded.map(_.length.toDouble).sum / k, "bytes"))
  }

  /** Median milliseconds of `Rumble.compile` on the workload's query. */
  def compileMs(reps: Int): Double =
    Harness.median((1 to reps).map(_ => Bench.seconds(rumble.compile(query)))) * 1e3

  /** `count(json-file(...))`: median seconds and the count. */
  def source(reps: Int): (Double, Long) = {
    val (s, r) = timed(reps)(rumble.run(s"""count(json-file("$input"))"""))
    (s, r.head.numericDouble.toLong)
  }

  /** Every clause prefix of the compiled query, forced in full, when the
    * query runs as a DataFrame clause chain. Otherwise two prefixes through
    * the public API: the source count and the query's own count. */
  def prefixes(reps: Int, sourceS: Double, sourceCount: Long): (String, Vector[Prefix]) = {
    val ctx = DynamicContext.root(RumbleConf())
    Clauses.chain(rumble.compile(query)) match {
      case Some(chain) =>
        "dataframe" -> chain.indices.map { k =>
          val (s, (tuples, bytes)) = timed(reps) {
            Bench.force(Clauses.dataFrame(Clauses.chain(rumble.compile(query)).get(k), ctx))
          }
          Prefix(Clauses.kind(chain(k)), s, tuples, Some(bytes))
        }.toVector
      case None =>
        val (s, tuples) = timed(reps)(rumble.runCount(query))
        val label = if (Clauses.isRddFlwor(rumble.compile(query))) "where" else "clauses"
        "count" -> Vector(Prefix("for", sourceS, sourceCount, None), Prefix(label, s, tuples, None))
    }
  }

  /** Median seconds of the query's result RDD counted instead of written. */
  def unwritten(reps: Int): Double = timed(reps)(rumble.runToRdd(query).count())._1

  def rawSpark(reps: Int): Option[Double] =
    w.rawSpark.map(program => timed(reps)(program(spark, input))._1)
}

object Bench {
  val MB = 1024.0 * 1024.0

  def seconds(f: => Any): Double = Harness.time(f)._2

  /** Median seconds of one pass, over 5 passes after 2 warm-up passes. */
  def passes(f: => Unit): Double = Harness.median((1 to 7).map(_ => seconds(f)).drop(2))

  /** Nearest-rank value of the highest whole percentile with at least 10
    * samples above it, and that percentile. */
  def tail(xs: Seq[Double]): (Double, Int) = {
    val s = xs.sorted
    val p = math.max(0, 100 * (s.size - 10) / s.size)
    (s(math.max(0, math.ceil(p / 100.0 * s.size).toInt - 1)), p)
  }

  /** Compute every row of a DataFrame, reading every cell (a bare count
    * lets Spark prune UDF columns nothing reads). Returns (rows, bytes in
    * binary and string cells). */
  def force(df: DataFrame): (Long, Long) = {
    val types = df.schema.fields.map(_.dataType)
    df.queryExecution.toRdd.mapPartitions { rows =>
      var n, bytes = 0L
      rows.foreach { r =>
        n += 1
        var i = 0
        while (i < types.length) {
          if (!r.isNullAt(i)) types(i) match {
            case BinaryType => bytes += r.getBinary(i).length
            case StringType => bytes += r.getUTF8String(i).numBytes
            case _          =>
          }
          i += 1
        }
      }
      Iterator((n, bytes))
    }.fold((0L, 0L))((a, b) => (a._1 + b._1, a._2 + b._2))
  }
}

/** Peak heap, summed over the heap memory pools. */
object Heap {
  private val pools =
    ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP).toVector
  def resetPeaks(): Unit = pools.foreach(_.resetPeakUsage())
  def peakMb: Double     = pools.map(_.getPeakUsage.getUsed).sum / Bench.MB
}

/** The clause iterators of a compiled FLWOR, read from the iterator tree by
  * reflection because the engine has no API for a prefix of a clause
  * chain. Any other shape of tree gives None, and callers fall back to the
  * public API. */
object Clauses {

  private def field(o: AnyRef, name: String): Option[AnyRef] =
    o.getClass.getDeclaredFields.find(_.getName == name).map { f =>
      f.setAccessible(true)
      f.get(o)
    }

  private def parent(c: AnyRef): Option[AnyRef] =
    field(c, "input").orElse(field(c, "parent")).flatMap {
      case o: Option[_] => o.map(_.asInstanceOf[AnyRef])
      case p            => Option(p)
    }

  private def hasDataFrame(c: AnyRef): Boolean =
    Try(c.getClass.getMethod("getDataFrame", classOf[DynamicContext])).isSuccess

  /** First to last clause, or None. */
  def chain(root: AnyRef): Option[Vector[AnyRef]] =
    field(root, "last").filter(hasDataFrame).map { last =>
      Iterator.iterate(Option(last))(_.flatMap(parent)).takeWhile(_.isDefined).flatten.toVector.reverse
    }.filter(_.forall(hasDataFrame))

  def dataFrame(clause: AnyRef, ctx: DynamicContext): DataFrame =
    clause.getClass.getMethod("getDataFrame", classOf[DynamicContext])
      .invoke(clause, ctx).asInstanceOf[DataFrame]

  /** `for`, `let`, `where`, `groupby`, `orderby` or `count`. */
  def kind(clause: AnyRef): String =
    clause.getClass.getSimpleName.stripSuffix("ClauseIterator").toLowerCase

  /** True for the `for ... where ... return` FLWOR run directly on RDDs. */
  def isRddFlwor(root: AnyRef): Boolean = root.getClass.getSimpleName == "SimpleFlworRddIterator"
}
