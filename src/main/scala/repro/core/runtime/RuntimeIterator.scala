package repro.core.runtime

import org.apache.spark.rdd.RDD
import repro.core.model._

/** Base of all expression runtime iterators (paper §5.4–5.6).
  *
  * Two execution APIs, between which consumers switch seamlessly:
  *
  *  - '''local API''' (§5.5): `localIterator(ctx)`. If the iterator is
  *    RDD-capable in the given context, iterating it locally transparently
  *    *materializes* the RDD on the driver with one Spark job over all
  *    partitions (see [[RddUtils]]), warning past the configured cap.
  *    Readers of a prefix (`localPrefix`) fetch only as many partitions as
  *    they need.
  *  - '''RDD API''' (§5.6): `isRDD(ctx)` / `getRDD(ctx)` return the sequence
  *    of items as an `RDD[Item]` built by applying Spark transformations to
  *    the children's RDDs. Never available inside Spark closures
  *    (`ctx.insideClosure`), since Spark jobs do not nest.
  *
  * Subclasses implement `compute` (local semantics as a lazy iterator) and
  * optionally the RDD API and a cheaper `count`.
  */
abstract class RuntimeIterator extends Serializable {

  /** Local streaming semantics of this expression. */
  protected def compute(ctx: DynamicContext): Iterator[Item]

  /** Whether this expression can produce its result as an RDD here. */
  def isRDD(ctx: DynamicContext): Boolean = false

  /** The sequence of items as an RDD of Items; only when `isRDD(ctx)`. */
  def getRDD(ctx: DynamicContext): RDD[Item] =
    throw new RumbleException("RBML0001", s"${getClass.getSimpleName} has no RDD API")

  /** Number of result items without materializing them on the driver: a
    * Spark `count` action when RDD-backed, a local drain otherwise. The
    * single entry point of the count pushdown: FLWOR iterators override it
    * to count without evaluating their return expression. */
  def count(ctx: DynamicContext): Long =
    if (isRDD(ctx)) getRDD(ctx).count()
    else compute(ctx).foldLeft(0L)((n, _) => n + 1)

  /** Local iterator over the result, collecting from the RDD if this
    * expression is Spark-backed (the §5.5 seamless switch). */
  final def localIterator(ctx: DynamicContext): Iterator[Item] =
    if (isRDD(ctx)) RddUtils.collectWithCap(getRDD(ctx), ctx.conf)
    else compute(ctx)

  /** At most the first `n` items of the result. When RDD-backed this is a
    * Spark `take`, which scans partitions only until it has `n` items, so
    * a reader of a prefix does not pay for a full scan. */
  final def localPrefix(ctx: DynamicContext, n: Int): Iterator[Item] =
    if (isRDD(ctx)) RddUtils.takeWithCap(getRDD(ctx), n, ctx.conf)
    else compute(ctx).take(n)

  /** Fully materialized result (used for singleton/small sequences). */
  final def materialize(ctx: DynamicContext): List[Item] = localIterator(ctx).toList

  /** Materialize expecting zero-or-one item (value-comparison operands,
    * sort keys, lookup indices, ...). */
  final def materializeAtMostOne(ctx: DynamicContext): Option[Item] =
    localPrefix(ctx, 2).toList match {
      case Nil          => None
      case List(single) => Some(single)
      case _ => throw new RumbleException("XPTY0004", "expected a singleton sequence")
    }

  /** Effective boolean value of this expression's result. */
  final def effectiveBoolean(ctx: DynamicContext): Boolean =
    localPrefix(ctx, 2).toList match {
      case Nil          => false
      case List(single) => single.effectiveBoolean
      case first :: _ if first.isObject || first.isArray => true
      case _ => throw new RumbleException("FORG0006", "EBV undefined for this sequence")
    }
}

/** Driver-bound reads of an RDD (paper §5.5). `collect` is one Spark job
  * whose tasks read all partitions in parallel; the items come back in
  * partition order. `take` scans one partition first and more only while
  * it has too few items. A result larger than Spark's
  * `spark.driver.maxResultSize` fails the job. */
object RddUtils {
  /** All of an RDD's items, in order, with one warning when there are
    * more than the cap ("a warning is issued if the RDD has more items"). */
  def collectWithCap(rdd: RDD[Item], conf: RumbleConf): Iterator[Item] =
    capped(rdd.collect(), conf)

  /** At most the first `n` of an RDD's items, warning past the cap. */
  def takeWithCap(rdd: RDD[Item], n: Int, conf: RumbleConf): Iterator[Item] =
    capped(rdd.take(n), conf)

  private def capped(items: Array[Item], conf: RumbleConf): Iterator[Item] = {
    if (items.length > conf.materializationCap)
      Console.err.println(
        s"[${conf.engineName}] warning: materializing more than " +
        s"${conf.materializationCap} items through the local API")
    items.iterator
  }
}
