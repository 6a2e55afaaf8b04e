package repro.perfbench

import org.apache.spark.scheduler._
import scala.collection.mutable

/** Spark work of one job group: one query sample. Times in milliseconds,
  * except CPU time in nanoseconds; sizes in bytes; job spans are (job,
  * startMs, endMs), stage spans (stage, job, startMs, endMs). */
final class GroupCounters {
  var jobs, stages, tasks                    = 0
  var taskMs, cpuNs, deserMs, gcMs, schedMs = 0L
  var shuffleWrite, shuffleRead, spill      = 0L
  val jobSpans   = mutable.ArrayBuffer.empty[(Int, Long, Long)]
  val stageSpans = mutable.ArrayBuffer.empty[(Int, Int, Long, Long)]
}

/** Listener that files every job, stage and task under the job group that
  * was set when its job started (`SparkContext.setJobGroup`), so each
  * query sample reads exactly its own work. Read a group with `take`
  * after `ListenerDrain`. */
final class SparkCounters extends SparkListener {

  private val groups     = mutable.Map.empty[String, GroupCounters]
  private val stageOwner = mutable.Map.empty[Int, (String, Int)]
  private val jobOwner   = mutable.Map.empty[Int, (String, Long)]

  private def groupOf(e: SparkListenerJobStart): Option[String] =
    Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    groupOf(e).foreach { g =>
      groups.getOrElseUpdate(g, new GroupCounters).jobs += 1
      jobOwner(e.jobId) = (g, e.time)
      e.stageIds.foreach(s => stageOwner.getOrElseUpdate(s, (g, e.jobId)))
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobOwner.remove(e.jobId).foreach { case (g, start) =>
      groups(g).jobSpans += ((e.jobId, start, e.time))
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val info = e.stageInfo
    stageOwner.get(info.stageId).foreach { case (g, job) =>
      val c = groups(g)
      c.stages += 1
      for (s <- info.submissionTime; f <- info.completionTime)
        c.stageSpans += ((info.stageId, job, s, f))
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for ((g, _) <- stageOwner.get(e.stageId); info <- Option(e.taskInfo)) {
      val c = groups(g)
      c.tasks += 1
      c.taskMs += info.duration
      Option(e.taskMetrics).foreach { m =>
        c.cpuNs += m.executorCpuTime + m.executorDeserializeCpuTime
        c.deserMs += m.executorDeserializeTime
        c.gcMs += m.jvmGCTime
        c.schedMs += math.max(0L, info.duration - m.executorRunTime -
          m.executorDeserializeTime - m.resultSerializationTime - info.gettingResultTime)
        c.shuffleWrite += m.shuffleWriteMetrics.bytesWritten
        c.shuffleRead += m.shuffleReadMetrics.totalBytesRead
        c.spill += m.diskBytesSpilled
      }
    }
  }

  /** Remove and return the counters of a group (empty if it ran no job). */
  def take(group: String): GroupCounters = synchronized {
    stageOwner.filterInPlace { case (_, (g, _)) => g != group }
    groups.remove(group).getOrElse(new GroupCounters)
  }
}
