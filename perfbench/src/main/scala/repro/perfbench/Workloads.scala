package repro.perfbench

import com.fasterxml.jackson.databind.JsonNode
import java.io.File
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.Files
import org.apache.spark.sql.SparkSession
import repro.baselines.RawSparkBaseline
import repro.datasets.{ConfusionData, HeterogeneousData, RedditData}
import scala.jdk.CollectionConverters._

/** What one query run produced, in the form its check reads. */
sealed trait Output
/** The result items, each as JSON text. */
final case class Items(lines: Vector[String]) extends Output
/** A JSON-Lines directory written by the query. */
final case class Written(dir: String) extends Output

/** One benchmark workload: its generated input, its JSONiq query, and the
  * check of a result against a reference computed without the engine. */
sealed abstract class Workload(val name: String) extends Serializable {
  /** The expected result, as its check compares it. */
  type Ref

  /** Input objects per run. */
  def objects: Long

  /** Untimed queries after set-up. The JIT keeps compiling the per-query
    * driver code for about the first 20 queries; samples taken before then
    * trend down by up to a quarter. */
  def warmups: Int

  /** Generate `n` objects from `seed` as a JSON-Lines directory of
    * `Workload.Files` files. */
  def generate(spark: SparkSession, dir: String, n: Long, seed: Long): String

  def query(path: String): String

  /** True when the query is run with `Rumble.writeJsonLines`, false when
    * with `Rumble.run`. */
  def writes: Boolean = false

  /** The reference, folded over the input text with Jackson. */
  def reference(spark: SparkSession, path: String): Ref

  /** None when `out` equals the reference, else what differs. */
  def check(spark: SparkSession, ref: Ref, out: Output): Option[String]

  /** The hand-written raw Spark program for the same query, if any. */
  def rawSpark: Option[(SparkSession, String) => Any] = None

  protected def lines(out: Output): Vector[String] = out match {
    case Items(ls) => ls
    case Written(d) => throw new IllegalStateException(s"$name expects items, got directory $d")
  }
}

object Workload {
  /** Input files per workload, so each `json-file` scan is 8 tasks. */
  val Files = 8
}

/** Queries returning one object per group, checked as an exact map from
  * group key to (count, sum). */
sealed abstract class GroupWorkload(name: String) extends Workload(name) {
  type Ref = Map[String, (Long, BigDecimal)]

  /** Field of a result object holding the group key. */
  def keyField: String
  /** Field of a result object holding the sum, if the query has one. */
  def sumField: Option[String] = None

  /** Group key and summed value of an input record, None if filtered out. */
  def fold(record: JsonNode): Option[(String, BigDecimal)]

  def reference(spark: SparkSession, path: String): Ref =
    spark.sparkContext.textFile(path).mapPartitions { ls =>
      val acc = scala.collection.mutable.Map.empty[String, (Long, BigDecimal)]
      ls.foreach(l => fold(Canon.parse(l)).foreach { case (k, v) =>
        val (c, s) = acc.getOrElse(k, (0L, BigDecimal(0)))
        acc(k) = (c + 1, s + v)
      })
      Iterator(acc.toMap)
    }.fold(Map.empty[String, (Long, BigDecimal)]) { (a, b) =>
      b.foldLeft(a) { case (m, (k, (c, s))) =>
        val (c0, s0) = m.getOrElse(k, (0L, BigDecimal(0)))
        m.updated(k, (c0 + c, s0 + s))
      }
    }

  /** A result object as (key, (count, sum)), or why it is malformed. */
  private def group(l: String): Either[String, (String, (Long, BigDecimal))] = {
    val o = Canon.parse(l)
    def field(f: String, ok: JsonNode => Boolean) =
      Option(o.get(f)).filter(ok).toRight(s"no valid $f in group $l")
    for {
      k <- field(keyField, _.isTextual)
      c <- field("count", _.isIntegralNumber)
      s <- sumField.fold[Either[String, BigDecimal]](Right(BigDecimal(0)))(f =>
             field(f, _.isNumber).map(n => BigDecimal(n.decimalValue)))
    } yield k.textValue -> ((c.longValue, s))
  }

  def check(spark: SparkSession, ref: Ref, out: Output): Option[String] = {
    val parsed = lines(out).map(group)
    parsed.collectFirst { case Left(e) => e }.orElse {
      val got   = parsed.collect { case Right(g) => g }
      val byKey = got.toMap
      val wrong = (ref.keySet ++ byKey.keySet).toVector.sorted.filter(k => ref.get(k) != byKey.get(k))
      if (byKey.size != got.size) Some(s"${got.size - byKey.size} duplicate group keys")
      else wrong.headOption.map(k =>
        s"${wrong.size} groups differ, first $k: expected ${ref.get(k)}, got ${byKey.get(k)}")
    }
  }
}

/** T1 / Fig. 11 group query: objects per target language. */
object ConfusionGroup extends GroupWorkload("confusion-group") {
  def objects: Long = 50_000L
  def warmups: Int   = 25
  def generate(spark: SparkSession, dir: String, n: Long, seed: Long): String =
    ConfusionData.generate(spark, dir, n, Workload.Files, seed)
  def query(path: String): String =
    s"""for $$i in json-file("$path")
       |group by $$target := $$i.target
       |return { "target" : $$target, "count" : count($$i) }""".stripMargin
  def keyField: String = "target"
  def fold(r: JsonNode): Option[(String, BigDecimal)] = Some((r.get("target").textValue, BigDecimal(0)))
  override def rawSpark: Option[(SparkSession, String) => Any] =
    Some(RawSparkBaseline.groupQuery)
}

/** The paper's Fig. 7 query over messy records (the key is a string, an
  * array, null or absent), with a filter and a sum over a materialized
  * non-grouping variable. */
object MessyGroup extends GroupWorkload("messy-group") {
  def objects: Long = 40_000L
  def warmups: Int   = 15
  def generate(spark: SparkSession, dir: String, n: Long, seed: Long): String =
    HeterogeneousData.generateFig7(spark, dir, n, Workload.Files, seed)
  def query(path: String): String =
    s"""for $$o in json-file("$path")
       |let $$v := $$o.value
       |where $$v ge 10
       |group by $$c := if (exists($$o.country[]))
       |                then $$o.country[[1]]
       |                else if (exists($$o.country) and not($$o.country eq null))
       |                then $$o.country
       |                else "unknown"
       |return {"country": $$c, "count": count($$o), "sum": sum($$v)}""".stripMargin
  def keyField: String = "country"
  override def sumField: Option[String] = Some("sum")
  def fold(r: JsonNode): Option[(String, BigDecimal)] = {
    val v = BigDecimal(r.get("value").decimalValue)
    if (v < 10) None
    else {
      val c = r.get("country")
      val key =
        if (c != null && c.isArray && c.size > 0) c.get(0).textValue
        else if (c != null && c.isTextual) c.textValue
        else "unknown"
      Some((key, v))
    }
  }
}

/** T4/T5 highly selective filter over reddit comments, checked as the
  * exact multiset of matched objects. */
object RedditFilter extends Workload("reddit-filter") {
  type Ref = Vector[String]
  val minScore = 1000L
  def objects: Long = 80_000L
  def warmups: Int   = 15
  def generate(spark: SparkSession, dir: String, n: Long, seed: Long): String =
    RedditData.generate(spark, dir, n, Workload.Files, seed)
  def query(path: String): String =
    s"""for $$c in json-file("$path")
       |where $$c.score ge $minScore
       |return $$c""".stripMargin
  def reference(spark: SparkSession, path: String): Ref = {
    val min = minScore
    spark.sparkContext.textFile(path).map(Canon.parse)
      .filter(_.get("score").longValue >= min).map(Canon.of).collect().toVector.sorted
  }
  def check(spark: SparkSession, ref: Ref, out: Output): Option[String] = {
    val got = lines(out).map(Canon(_)).sorted
    if (got == ref) None
    else Some(s"${got.size} items, expected ${ref.size}; first difference: " +
      got.zipAll(ref, "<none>", "<none>").find(p => p._1 != p._2).getOrElse(("", "")))
  }
  override def rawSpark: Option[(SparkSession, String) => Any] =
    Some(RawSparkBaseline.redditFilter(_, _, minScore))
}

/** T1 sort query written back as JSON Lines, checked by count, multiset
  * hash and order under (target ascending, country descending, date
  * descending) within and across the output's part files. */
object ConfusionSort extends Workload("confusion-sort") {
  /** (matched objects, sum of their canonical hashes) */
  type Ref = (Long, Long)
  def objects: Long = 10_000L
  def warmups: Int   = 25
  override def writes: Boolean = true
  def generate(spark: SparkSession, dir: String, n: Long, seed: Long): String =
    ConfusionData.generate(spark, dir, n, Workload.Files, seed)
  def query(path: String): String =
    s"""for $$i in json-file("$path")
       |where $$i.guess eq $$i.target
       |order by $$i.target ascending, $$i.country descending, $$i.date descending
       |return $$i""".stripMargin

  private def matches(r: JsonNode): Boolean = r.get("guess").textValue == r.get("target").textValue

  private def key(r: JsonNode): (String, String, String) =
    (r.get("target").textValue, r.get("country").textValue, r.get("date").textValue)

  /** Negative when `a` must precede `b`. */
  private def compare(a: (String, String, String), b: (String, String, String)): Int = {
    var c = a._1.compareTo(b._1)
    if (c == 0) c = b._2.compareTo(a._2)
    if (c == 0) c = b._3.compareTo(a._3)
    c
  }

  def reference(spark: SparkSession, path: String): Ref =
    spark.sparkContext.textFile(path).map(Canon.parse).filter(matches)
      .map(r => (1L, Canon.hash(Canon.of(r)))).fold((0L, 0L))((a, b) => (a._1 + b._1, a._2 + b._2))

  /** Per part file: count, hash sum, first and last key, first line out of
    * order (or -1). */
  private final case class Part(n: Long, hash: Long, first: Option[(String, String, String)],
                                last: Option[(String, String, String)], disorder: Long)

  private def part(file: String): Part = {
    var n, hash = 0L
    var disorder = -1L
    var first, last: Option[(String, String, String)] = None
    Files.readAllLines(new File(file).toPath, UTF_8).asScala.foreach { l =>
      val r = Canon.parse(l)
      val k = key(r)
      if (last.exists(p => compare(p, k) > 0) && disorder < 0) disorder = n
      if (first.isEmpty) first = Some(k)
      last = Some(k)
      hash += Canon.hash(Canon.of(r))
      n += 1
    }
    Part(n, hash, first, last, disorder)
  }

  def check(spark: SparkSession, ref: Ref, out: Output): Option[String] = out match {
    case Items(_) => Some("expected a written directory")
    case Written(dir) =>
      val files = Option(new File(dir).listFiles()).toVector.flatten
        .filter(_.getName.startsWith("part-")).map(_.getPath).sorted
      val parts = spark.sparkContext.parallelize(files, math.max(1, files.size)).map(part).collect()
      val n     = parts.map(_.n).sum
      val hash  = parts.map(_.hash).sum
      val inFile = files.zip(parts).find(_._2.disorder >= 0)
      val across = parts.filter(_.n > 0).sliding(2).indexWhere {
        case Array(a, b) => compare(a.last.get, b.first.get) > 0
        case _           => false
      }
      if (n != ref._1) Some(s"$n items written, expected ${ref._1}")
      else if (hash != ref._2) Some("written items differ from the expected multiset")
      else inFile.map { case (f, p) => s"line ${p.disorder} of $f is out of order" }
        .orElse(if (across >= 0) Some(s"part files out of order after non-empty part $across") else None)
  }
}

object Workloads {
  val all: Vector[Workload] = Vector(ConfusionGroup, ConfusionSort, RedditFilter, MessyGroup)
  def byName(n: String): Option[Workload] = all.find(_.name == n)
}
