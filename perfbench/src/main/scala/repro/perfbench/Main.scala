package repro.perfbench

import java.io.File
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.Files
import org.apache.spark.sql.SparkSession
import repro.bench.Harness
import scala.collection.mutable

/** Benchmark entry point. One closed-loop client runs one workload's query
  * through the public `Rumble` API, one query at a time, for a fixed time,
  * and checks every result. Prints each metric as `name value unit`, then
  * one JSON line: the end-to-end metrics (`--trace 0`), or the per-layer
  * metrics of a traced run (`--trace 1`). Writes a report with provenance,
  * every sample and every span.
  *
  * {{{
  * Main --workload confusion-group --seed 1 --seconds 12 --trace 0
  *      --cores 4 --work-dir DIR --report FILE [--source-id ID]
  * Main --self-test 1 --cores 4 --work-dir DIR
  * }}}
  */
object Main {

  /** Set-up rounds per run; `setup_s` uses their median. */
  val SetupRounds = 3
  /** Repetitions of each layer measurement in a traced run. */
  val LayerReps = 5

  def main(argv: Array[String]): Unit = {
    val args = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def arg(k: String) = args.getOrElse(k, sys.error(s"missing --$k"))
    val cores   = arg("cores").toInt
    val workDir = new File(arg("work-dir")).getAbsolutePath
    val t0      = System.nanoTime()
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", (4 * cores).toString)
      .config("spark.local.dir", s"$workDir/spark-local")
      .config("spark.sql.warehouse.dir", s"$workDir/warehouse")
      .getOrCreate()
    val sessionS = (System.nanoTime() - t0) / 1e9
    val code =
      try {
        if (args.get("self-test").contains("1")) SelfTest.run(spark, workDir)
        else {
          val w = Workloads.byName(arg("workload")).getOrElse(sys.error(s"unknown workload ${arg("workload")}"))
          run(spark, w, arg("seed").toLong, arg("seconds").toDouble, arg("trace") == "1", cores,
              workDir, arg("report"), args.getOrElse("source-id", "unknown"), sessionS)
          0
        }
      } finally spark.stop()
    sys.exit(code)
  }

  private def run(spark: SparkSession, w: Workload, seed: Long, seconds: Double, trace: Boolean,
                  cores: Int, workDir: String, report: String, sourceId: String, sessionS: Double): Unit = {
    val bench = new Bench(spark, w, seed, workDir)

    // set-up: always into fresh directories, the same work on every run
    val rounds = (0 until SetupRounds).map { i =>
      val s = bench.setupRound(i)
      if (i > 0) Harness.deleteRecursively(new File(s"$workDir/input-${i - 1}"))
      s
    }
    val warmup = Vector.fill(w.warmups)(bench.sample(traced = false))
    val warmS  = warmup.map(_.seconds).sum
    val setupS = sessionS + Harness.median(rounds) + warmS

    val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
    def put(name: String, value: Double, unit: String): Unit = metrics(name) = (value, unit)
    val notes = mutable.LinkedHashMap.empty[String, String]
    var failedLayers = 0

    // end-to-end; in a traced run, untraced samples alternate with traced ones
    val samples = if (trace) bench.measure(seconds / 2, 10)(i => i % 4 == 1 || i % 4 == 2) else bench.measure(seconds, 11)(_ => false)
    val plain   = samples.filterNot(_.traced)
    val querySecs = plain.map(_.seconds)
    val queryS    = Harness.median(querySecs)
    val (tailS, tailP) = Bench.tail(querySecs)
    val taskS = Harness.median(plain.map(_.spark.cpuNs / 1e9))
    put("query_s", queryS, "s")
    put("query_s_tail", tailS, "s")
    notes("query_s_tail") = s"p$tailP of ${querySecs.size} samples"
    put("task_s", taskS, "core_s")
    put("heap_peak_mb", plain.map(_.heapMb).max, "MB")
    put("setup_s", setupS, "s")
    notes("setup_s") = f"session $sessionS%.3f s + median of $SetupRounds rounds " +
      rounds.map(r => f"$r%.3f").mkString("(", ", ", ")") + f" s + ${w.warmups} warm-up queries $warmS%.3f s"
    val failed = samples.count(_.error.isDefined)
    put("error_rate", failed.toDouble / samples.size, "ratio")

    if (trace) {
      val traced = samples.filter(_.traced)
      def mean(f: Sample => Double) = traced.map(f).sum / traced.size
      bench.micro(50_000).foreach { case (n, v, u) => put(n, v, u) }
      put("compile_ms", bench.compileMs(30), "ms")
      val (sourceS, sourceCount) = bench.source(LayerReps)
      if (sourceCount != w.objects) failedLayers += 1
      put("rdd.source_s", sourceS, "s")
      val (method, prefixes) = bench.prefixes(LayerReps, sourceS, sourceCount)
      notes("flwor.prefixes") = method + ": " + prefixes.map(p => f"${p.clause} ${p.seconds}%.4f s").mkString(", ")
      put("flwor.for_s", prefixes.head.seconds, "s")
      put("flwor.clauses_s", prefixes.last.seconds - prefixes.head.seconds, "s")
      put("flwor.return_s", queryS - prefixes.last.seconds, "s")
      val bytes = prefixes.flatMap(_.cellBytes)
      if (bytes.nonEmpty) put("flwor.cell_bytes_per_tuple", bytes.sum.toDouble / prefixes.map(_.tuples).sum, "bytes")
      put("result.items", mean(_.items.toDouble), "count")
      put("output.mb", mean(_.outBytes / Bench.MB), "MB")
      put("spark.jobs", mean(_.spark.jobs), "count")
      put("spark.stages", mean(_.spark.stages), "count")
      put("spark.tasks", mean(_.spark.tasks), "count")
      put("spark.shuffle_write_mb", mean(_.spark.shuffleWrite / Bench.MB), "MB")
      put("spark.shuffle_read_mb", mean(_.spark.shuffleRead / Bench.MB), "MB")
      put("spark.spill_mb", mean(_.spark.spill / Bench.MB), "MB")
      put("spark.task_wall_s", mean(_.spark.taskMs / 1e3), "s")
      put("spark.gc_s", mean(_.spark.gcMs / 1e3), "s")
      put("spark.task_deser_s", mean(_.spark.deserMs / 1e3), "s")
      put("spark.sched_delay_s", mean(_.spark.schedMs / 1e3), "s")
      put("spark.core_util", taskS / (queryS * cores), "ratio")
      put("spark.persist_mb", mean(_.persistMb), "MB")
      put("trace.overhead", Harness.median(traced.map(_.seconds)) - queryS, "s")

      // per-workload detail: self time per clause kind, tuples and cell
      // bytes out of each clause (a repeated kind is numbered: let, let2)
      prefixes.zipWithIndex.drop(1).groupBy(_._1.clause).foreach { case (clause, ps) =>
        put(s"flwor.${clause}_s", ps.map { case (p, k) => p.seconds - prefixes(k - 1).seconds }.sum, "s")
      }
      prefixes.zipWithIndex.foreach { case (p, k) =>
        val n     = prefixes.take(k + 1).count(_.clause == p.clause)
        val label = if (n == 1) p.clause else s"${p.clause}$n"
        put(s"flwor.tuples.$label", p.tuples.toDouble, "count")
        p.cellBytes.foreach(b => put(s"flwor.cell_bytes_per_tuple.$label", b.toDouble / p.tuples, "bytes"))
      }
      if (method == "count") put("rdd.filter_s", queryS - sourceS, "s")
      if (w.writes) put("output.write_s", queryS - bench.unwritten(LayerReps), "s")
      bench.rawSpark(LayerReps).foreach { raw =>
        put("baselines.rawspark_s", raw, "s")
        put("ratio.rumble_over_rawspark", queryS / raw, "ratio")
      }
      val self = bench.tracer.selfSeconds
      bench.tracer.all.groupBy(_.name).foreach { case (name, spans) =>
        val perSample = spans.groupBy(_.sample).values.map(_.map(s => self(s.id)).sum).toSeq
        put(s"trace.self.${name}_s", Harness.median(perSample), "s")
      }
    }

    val attempted = samples.size + (if (trace) 1 else 0)
    val failedOps = failed + failedLayers
    metrics.foreach { case (n, (v, u)) =>
      println(s"$n $v $u" + notes.get(n).fold("")(" (" + _ + ")"))
    }
    notes.filterNot(n => metrics.contains(n._1)).foreach { case (n, v) => println(s"$n: $v") }
    samples.flatMap(_.error).distinct.foreach(e => println(s"error: ${e.take(500)}"))

    val inputBytes = Option(new File(bench.inputPath).listFiles()).toVector.flatten
      .filter(_.getName.startsWith("part-")).map(_.length).sum
    val provenance = Map(
      "workload" -> w.name, "seed" -> seed, "trace" -> trace, "seconds" -> seconds,
      "nproc" -> cores, "available_processors" -> Runtime.getRuntime.availableProcessors,
      "heap_max_mb" -> Runtime.getRuntime.maxMemory / Bench.MB,
      "spark_master" -> spark.sparkContext.master, "spark_version" -> spark.version,
      "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "source_id" -> sourceId, "input_objects" -> w.objects, "input_bytes" -> inputBytes,
      "query" -> w.query("<input>"), "setup_rounds_s" -> rounds, "warmup_s" -> warmS,
      "warmup_samples_s" -> warmup.map(_.seconds),
      "data" -> "generated into a fresh directory in every set-up round")
    val reportJson = Json(Map(
      "provenance" -> provenance,
      "metrics" -> metrics.map { case (n, (v, u)) => n -> Map("value" -> v, "unit" -> u) }.toMap,
      "notes" -> notes.toMap,
      "samples" -> samples.map(s => Map(
        "traced" -> s.traced, "seconds" -> s.seconds, "task_s" -> s.spark.cpuNs / 1e9,
        "task_wall_s" -> s.spark.taskMs / 1e3,
        "jobs" -> s.spark.jobs, "stages" -> s.spark.stages, "tasks" -> s.spark.tasks,
        "heap_peak_mb" -> s.heapMb, "persist_mb" -> s.persistMb, "items" -> s.items,
        "error" -> s.error.orNull)),
      "spans" -> bench.tracer.all.map(s => Map(
        "id" -> s.id, "parent" -> s.parent, "sample" -> s.sample, "name" -> s.name,
        "start_ms" -> s.start / 1e6, "end_ms" -> s.end / 1e6))))
    val reportFile = new File(report)
    reportFile.getParentFile.mkdirs()
    Files.write(reportFile.toPath, reportJson.getBytes(UTF_8))
    println(s"report: ${reportFile.getPath}")

    // every metric; the caller keeps those BENCHMARK.json declares for the mode
    println(Json(Map(
      "correct" -> (failedOps == 0), "attempted" -> attempted, "failed" -> failedOps,
      "metrics" -> metrics.map { case (n, (v, u)) => n -> Map("value" -> v, "unit" -> u) }.toMap)))
  }
}

/** Minimal JSON writer for the report and the result line. */
object Json {
  def apply(v: Any): String = v match {
    case null                    => "null"
    case s: String               => com.fasterxml.jackson.databind.node.TextNode.valueOf(s).toString
    case b: Boolean              => b.toString
    case d: Double               => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int                  => n.toString
    case n: Long                 => n.toString
    case m: scala.collection.Map[_, _] =>
      m.map { case (k, x) => apply(k.toString) + ": " + apply(x) }.mkString("{", ", ", "}")
    case xs: Iterable[_]         => xs.map(apply).mkString("[", ", ", "]")
    case other                   => apply(other.toString)
  }
}
