package repro.core

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskStart}
import repro.SparkSpec
import repro.core.json.JsonWriter
import repro.core.model._
import repro.core.runtime.RumbleConf

/** Spark jobs and tasks started while a piece of code ran. */
final case class SparkWork(jobs: Int, tasks: Int)

/** Base for engine test suites: a forced-local engine (pure interpreter,
  * no Spark jobs) and a full engine over the shared SparkSession, plus
  * helpers that compare a query's result against its serialized form. */
trait RumbleSpec extends SparkSpec {

  lazy val rumble: Rumble      = new Rumble(spark)
  lazy val rumbleLocal: Rumble = new Rumble(spark, RumbleConf(forceLocal = true))

  /** Serialize a sequence of items the way expectations are written. */
  def ser(items: Seq[Item]): String = items.map(JsonWriter.write).mkString(", ")

  /** Run on the forced-local engine and serialize. */
  def evalLocal(query: String): String = ser(rumbleLocal.run(query))

  /** Run on the Spark-enabled engine and serialize. */
  def evalSpark(query: String): String = ser(rumble.run(query))

  def expectError(query: String, codePrefix: String)(run: String => Any): Unit = {
    val e = intercept[RumbleException](run(query))
    assert(e.code.startsWith(codePrefix), s"expected $codePrefix, got ${e.code}: ${e.getMessage}")
  }

  /** Spark jobs and tasks started while `body` runs. A fence job run
    * afterwards makes sure the listener has seen every earlier event. */
  def sparkWork(body: => Unit): SparkWork = {
    val sc    = spark.sparkContext
    val jobs  = new AtomicInteger
    val tasks = new AtomicInteger
    val fence = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (Option(e.properties).exists(_.getProperty("spark.job.description") == "fence"))
          fence.countDown()
        else jobs.incrementAndGet()
      override def onTaskStart(e: SparkListenerTaskStart): Unit =
        if (fence.getCount > 0) tasks.incrementAndGet()
    }
    sc.addSparkListener(listener)
    try {
      body
      sc.setJobDescription("fence")
      try sc.parallelize(Seq(1), 1).count() finally sc.setJobDescription(null)
      assert(fence.await(60, TimeUnit.SECONDS))
      SparkWork(jobs.get, tasks.get)
    } finally sc.removeSparkListener(listener)
  }

  /** Temp JSON-Lines file from raw lines; deleted on JVM exit. */
  def tempJsonFile(name: String, lines: Seq[String]): String = {
    val f = java.io.File.createTempFile(name, ".json")
    f.deleteOnExit()
    val w = new java.io.PrintWriter(f, "UTF-8")
    lines.foreach(w.println)
    w.close()
    f.getAbsolutePath
  }
}
