package repro.perfbench

import scala.collection.mutable

/** A span: a named interval in one query sample, nested under `parent`
  * (-1 for a root). Times are nanoseconds since the run started. */
final case class Span(id: Int, parent: Int, sample: Int, name: String, start: Long, end: Long)

/** In-memory spans, recorded by the benchmark around each call into the
  * engine and, from the Spark listener, around each job and stage. */
final class Tracer {

  private val t0       = System.nanoTime()
  private val epoch0Ms = System.currentTimeMillis()
  private val spans    = mutable.ArrayBuffer.empty[Span]

  private def now: Long = System.nanoTime() - t0

  /** Nanoseconds since the run started, for an epoch-milliseconds stamp. */
  def fromEpochMs(ms: Long): Long = (ms - epoch0Ms) * 1000000L

  def open(name: String, parent: Int, sample: Int): Int = {
    spans += Span(spans.size, parent, sample, name, now, -1L)
    spans.size - 1
  }

  def close(id: Int): Unit = spans(id) = spans(id).copy(end = now)

  def apply[T](name: String, parent: Int, sample: Int)(f: => T): T = {
    val id = open(name, parent, sample)
    try f finally close(id)
  }

  def add(name: String, parent: Int, sample: Int, start: Long, end: Long): Int = {
    spans += Span(spans.size, parent, sample, name, start, end)
    spans.size - 1
  }

  def all: Vector[Span] = spans.toVector

  /** Self time of every span in seconds: its length minus the part of it
    * that its children cover. */
  def selfSeconds: Map[Int, Double] = {
    val children = spans.groupBy(_.parent)
    spans.map { s =>
      val covered = children.getOrElse(s.id, Nil)
        .map(c => (math.max(c.start, s.start), math.min(c.end, s.end)))
        .filter(i => i._2 > i._1).sortBy(_._1)
        .foldLeft((0L, Long.MinValue)) { case ((sum, reach), (a, b)) =>
          if (b <= reach) (sum, reach) else (sum + b - math.max(a, reach), b)
        }._1
      s.id -> (s.end - s.start - covered) / 1e9
    }.toMap
  }
}
