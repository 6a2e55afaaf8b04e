package repro.core.runtime

import java.io.File
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import scala.reflect.ClassTag
import repro.core.json.JsonParser
import repro.core.model._
import repro.core.runtime.flwor.KeyEncoder

/** `json-file(path[, partitions])` (paper §5.7): reads a JSON-Lines file as
  * a sequence of items. On the RDD path it is `textFile` + `mapPartitions`
  * with the streaming JSON parser; on the local path (forced-local engines,
  * closures) it streams the file line by line without Spark.
  */
final class JsonFileIterator(pathExpr: RuntimeIterator, partitions: Option[RuntimeIterator])
    extends RuntimeIterator {

  private def path(ctx: DynamicContext): String =
    pathExpr.materializeAtMostOne(ctx) match {
      case Some(s) if s.isString => s.stringValue
      case other => throw new RumbleException("FODC0002", s"json-file needs a path, got $other")
    }

  override def isRDD(ctx: DynamicContext): Boolean =
    !ctx.conf.forceLocal && !ctx.insideClosure

  override def getRDD(ctx: DynamicContext): RDD[Item] = {
    val sc = SparkSession.active.sparkContext
    val p  = path(ctx)
    val parts = partitions
      .flatMap(_.materializeAtMostOne(ctx))
      .map(_.numericDouble.toInt)
      .getOrElse(sc.defaultParallelism)
    sc.textFile(p, parts)
      .mapPartitions(_.filter(_.trim.nonEmpty).map(JsonParser.parseLine))
  }

  protected def compute(ctx: DynamicContext): Iterator[Item] = {
    val f = new File(path(ctx))
    val files: Seq[File] =
      if (f.isDirectory)
        f.listFiles().filter(x => x.isFile && x.getName.startsWith("part-")).sortBy(_.getName).toSeq
      else Seq(f)
    val overhead = ctx.conf.perItemOverhead
    val parsed = files.iterator.flatMap { file =>
      val src = scala.io.Source.fromFile(file, "UTF-8")
      src.getLines().filter(_.trim.nonEmpty).map { l =>
        var item = JsonParser.parseLine(l)
        var k    = 0
        while (k < overhead) { // model an unoptimized item representation
          item = JsonParser.parse(repro.core.json.JsonWriter.write(item))
          k += 1
        }
        item
      }
    }
    if (!ctx.conf.eagerInput) parsed
    else {
      // Xidel-style: load the whole document set into memory up front,
      // counting against the modeled heap.
      val buf = scala.collection.mutable.ArrayBuffer.empty[Item]
      parsed.foreach { i =>
        HeapModel.check(ctx, buf.size + 1L)
        buf += i
      }
      buf.iterator
    }
  }
}

/** `parallelize(e[, partitions])`: materializes the child sequence on the
  * driver and distributes it as an RDD of items (paper §5.7), triggering
  * Spark-enabled behaviour downstream. */
final class ParallelizeIterator(child: RuntimeIterator, partitions: Option[RuntimeIterator])
    extends RuntimeIterator {
  override def isRDD(ctx: DynamicContext): Boolean =
    !ctx.conf.forceLocal && !ctx.insideClosure
  override def getRDD(ctx: DynamicContext): RDD[Item] = {
    val sc    = SparkSession.active.sparkContext
    val items = child.materialize(ctx)
    val parts = partitions
      .flatMap(_.materializeAtMostOne(ctx))
      .map(_.numericDouble.toInt)
      .getOrElse(sc.defaultParallelism)
    sc.parallelize(items, parts)
  }
  protected def compute(ctx: DynamicContext): Iterator[Item] = child.localIterator(ctx)
}

/** A call of a builtin function: `body` applied to the compiled arguments.
  * The body is resolved once, at translation, by [[Builtins.resolve]]. */
final class FunctionIterator(args: Vector[RuntimeIterator], body: Builtins.Body)
    extends RuntimeIterator {
  protected def compute(ctx: DynamicContext): Iterator[Item] = body(args, ctx)
}

/** The builtin function library: one table from a function name to its
  * arity range and the runtime iterator that implements it (paper §5.4).
  * The translator resolves every call through it, so an unknown function or
  * a wrong arity is a static error (XPST0017, §5.3). Aggregations over
  * RDD-backed arguments run as Spark actions (count/sum/... on the cluster,
  * §4.1.2 / §5.5) and return a local singleton — invisible to the caller. */
object Builtins {

  type Body = (Vector[RuntimeIterator], DynamicContext) => Iterator[Item]

  private final case class Builtin(
      minArgs: Int, maxArgs: Int, make: Vector[RuntimeIterator] => RuntimeIterator)

  def resolve(name: String, args: List[RuntimeIterator]): RuntimeIterator = {
    val b = table.getOrElse(
      name, throw new StaticException("XPST0017", s"unknown function: $name()"))
    if (args.size < b.minArgs || args.size > b.maxArgs) {
      val arity = if (b.minArgs == b.maxArgs) s"${b.minArgs}" else s"${b.minArgs} to ${b.maxArgs}"
      throw new StaticException("XPST0017", s"$name() expects $arity argument(s), got ${args.size}")
    }
    b.make(args.toVector)
  }

  private def fn(minArgs: Int, maxArgs: Int)(body: Body): Builtin =
    Builtin(minArgs, maxArgs, args => new FunctionIterator(args, body))

  private def unary(body: (RuntimeIterator, DynamicContext) => Iterator[Item]): Builtin =
    fn(1, 1)((a, c) => body(a(0), c))

  /** One-argument function of the argument's item; empty for empty. */
  private def mapOne(f: Item => Item): Builtin =
    unary((a, c) => a.materializeAtMostOne(c).map(f).iterator)

  private def str(a: RuntimeIterator, ctx: DynamicContext): String =
    a.materializeAtMostOne(ctx).map(_.castToString).getOrElse("")

  private def intArg(a: RuntimeIterator, ctx: DynamicContext): Option[Int] =
    a.materializeAtMostOne(ctx).map(_.numericDouble.toInt)

  /** Folds the argument's items with `add`: as one Spark `aggregate` action
    * (partials combined with `merge`) when it is RDD-backed, locally
    * otherwise. Both paths run the same fold and return the same item. */
  private def fold[A: ClassTag](arg: RuntimeIterator, ctx: DynamicContext, zero: A)(
      add: (A, Item) => A, merge: (A, A) => A): A =
    if (arg.isRDD(ctx)) arg.getRDD(ctx).aggregate(zero)(add, merge)
    else arg.localIterator(ctx).foldLeft(zero)(add)

  /** Running sum for `sum` and `avg`: an exact Long while every item is an
    * integer, a Double from the first non-integer on. */
  private final case class Sum(n: Long, int: Long, dbl: Double, exact: Boolean) {
    def toDouble: Double = if (exact) int.toDouble else dbl
    def +(i: Item): Sum = i match {
      case IntItem(v) if exact => Sum(n + 1, int + v, 0.0, exact = true)
      case _                   => Sum(n + 1, 0L, toDouble + i.numericDouble, exact = false)
    }
    def ++(o: Sum): Sum =
      if (exact && o.exact) Sum(n + o.n, int + o.int, 0.0, exact = true)
      else Sum(n + o.n, 0L, toDouble + o.toDouble, exact = false)
    def item: Item = if (exact) IntItem(int) else DoubleItem(dbl)
  }

  private def sum(a: RuntimeIterator, ctx: DynamicContext): Sum =
    fold(a, ctx, Sum(0L, 0L, 0.0, exact = true))(_ + _, _ ++ _)

  /** `min`/`max`: keeps the earlier item when `keepFirst` holds for the
    * comparison of the earlier with the later one. */
  private def extreme(keepFirst: Int => Boolean): Builtin = unary { (a, c) =>
    val pick = (x: Item, y: Item) => if (keepFirst(Item.compareAtomics(x, y))) x else y
    fold(a, c, Option.empty[Item])(
      (best, i) => Some(best.fold(i)(pick(_, i))),
      (x, y) => (x ++ y).reduceOption(pick)).iterator
  }

  private def nonEmpty(a: RuntimeIterator, ctx: DynamicContext): Boolean =
    if (a.isRDD(ctx)) !a.getRDD(ctx).isEmpty() else a.localIterator(ctx).hasNext

  private val castDouble: Item => Item = {
    case i if i.isNumeric => DoubleItem(i.numericDouble)
    case s if s.isString =>
      try DoubleItem(s.stringValue.trim.toDouble)
      catch { case _: NumberFormatException => DoubleItem(Double.NaN) }
    case BooleanItem(b) => DoubleItem(if (b) 1.0 else 0.0)
    case other => throw new RumbleException("XPTY0004", s"cannot cast to double: $other")
  }

  private val table: Map[String, Builtin] = Map(
    // ---------------------------------------------------------- aggregates
    "count" -> unary((a, c) => Iterator.single(IntItem(a.count(c)))),
    "sum"   -> unary((a, c) => Iterator.single(sum(a, c).item)),
    "avg" -> unary { (a, c) =>
      val s = sum(a, c)
      if (s.n == 0) Iterator.empty else Iterator.single(DoubleItem(s.toDouble / s.n))
    },
    "min"    -> extreme(_ <= 0),
    "max"    -> extreme(_ >= 0),
    "empty"  -> unary((a, c) => Iterator.single(BooleanItem(!nonEmpty(a, c)))),
    "exists" -> unary((a, c) => Iterator.single(BooleanItem(nonEmpty(a, c)))),
    // items are keyed like group-by keys: numerics collapse by value across
    // integer/decimal/double, and an object or array is XPTY0004
    "distinct-values" -> unary { (a, c) =>
      if (a.isRDD(c)) {
        val keyed = a.getRDD(c).map(i => (KeyEncoder.encodeGroup(List(i)), i))
        RddUtils.collectWithCap(keyed.reduceByKey((x, _) => x).values, c.conf)
      }
      else {
        val seen = scala.collection.mutable.HashSet.empty[(Int, String, Double)]
        a.localIterator(c).filter(i => seen.add(KeyEncoder.encodeGroup(List(i))))
      }
    },

    // ----------------------------------------------------------- sequences
    "head" -> unary((a, c) => a.localPrefix(c, 1)),
    "tail" -> unary((a, c) => a.localIterator(c).drop(1)),
    "subsequence" -> fn(2, 3) { (a, c) =>
      val start = a(1).materializeAtMostOne(c).map(_.numericDouble.toLong).getOrElse(1L)
      val skip  = math.max(0L, start - 1).toInt
      a.lift(2).flatMap(intArg(_, c)) match {
        case Some(len) =>
          a(0).localPrefix(c, math.min(Int.MaxValue, skip.toLong + len).toInt).drop(skip)
        case None => a(0).localIterator(c).drop(skip)
      }
    },

    // ------------------------------------------------------------- objects
    "keys" -> unary((a, c) => a.localIterator(c).flatMap {
      case o: ObjectItem => o.keys.map(StringItem.apply)
      case _             => Vector.empty
    }),
    "values" -> unary((a, c) => a.localIterator(c).flatMap {
      case ObjectItem(fields) => fields.map(_._2)
      case _                  => Vector.empty
    }),
    "size" -> mapOne {
      case ArrayItem(vs) => IntItem(vs.size)
      case other => throw new RumbleException("XPTY0004", s"size() expects an array, got $other")
    },

    // ------------------------------------------------------------- scalars
    "string" -> unary((a, c) => Iterator.single(StringItem(str(a, c)))),
    "integer" -> mapOne {
      case i: IntItem       => i
      case i if i.isNumeric => IntItem(i.numericDouble.toLong)
      case s if s.isString =>
        try IntItem(s.stringValue.trim.toDouble.toLong)
        catch {
          case _: NumberFormatException =>
            throw new RumbleException("FORG0001", s"cannot cast ${s.stringValue} to integer")
        }
      case BooleanItem(b) => IntItem(if (b) 1 else 0)
      case other => throw new RumbleException("XPTY0004", s"cannot cast to integer: $other")
    },
    "double"  -> mapOne(castDouble),
    "number"  -> mapOne(castDouble),
    "boolean" -> unary((a, c) => Iterator.single(BooleanItem(a.effectiveBoolean(c)))),
    "not"     -> unary((a, c) => Iterator.single(BooleanItem(!a.effectiveBoolean(c)))),
    "abs" -> mapOne {
      case IntItem(v)     => IntItem(math.abs(v))
      case DoubleItem(v)  => DoubleItem(math.abs(v))
      case DecimalItem(v) => DecimalItem(v.abs)
      case other => throw new RumbleException("XPTY0004", s"abs() on non-number: $other")
    },
    "round" -> fn(1, 2) { (a, c) =>
      a(0).materializeAtMostOne(c).map { i =>
        val digits = a.lift(1).flatMap(intArg(_, c)).getOrElse(0)
        val f      = math.pow(10, digits)
        if (digits == 0 && i.isInteger) i else DoubleItem(math.round(i.numericDouble * f) / f)
      }.iterator
    },
    "string-length" -> unary((a, c) => Iterator.single(IntItem(str(a, c).length.toLong))),
    "substring" -> fn(2, 3) { (a, c) =>
      val s    = str(a(0), c)
      val from = math.max(0, intArg(a(1), c).getOrElse(1) - 1)
      Iterator.single(StringItem(a.lift(2) match {
        case Some(len) => s.slice(from, from + math.max(0, intArg(len, c).getOrElse(0)))
        case None      => s.drop(from)
      }))
    },
    "lower-case"  -> unary((a, c) => Iterator.single(StringItem(str(a, c).toLowerCase))),
    "upper-case"  -> unary((a, c) => Iterator.single(StringItem(str(a, c).toUpperCase))),
    "contains" -> fn(2, 2) { (a, c) =>
      Iterator.single(BooleanItem(str(a(0), c).contains(str(a(1), c))))
    },
    "starts-with" -> fn(2, 2) { (a, c) =>
      Iterator.single(BooleanItem(str(a(0), c).startsWith(str(a(1), c))))
    },
    "concat" -> fn(0, Int.MaxValue) { (a, c) =>
      Iterator.single(StringItem(a.map(str(_, c)).mkString))
    },
    "string-join" -> fn(1, 2) { (a, c) =>
      val sep = a.lift(1).fold("")(str(_, c))
      Iterator.single(StringItem(a(0).localIterator(c).map(_.castToString).mkString(sep)))
    },

    // --------------------------------------------------------------- input
    "json-file"   -> Builtin(1, 2, a => new JsonFileIterator(a(0), a.lift(1))),
    "parallelize" -> Builtin(1, 2, a => new ParallelizeIterator(a(0), a.lift(1))),
  )
}
