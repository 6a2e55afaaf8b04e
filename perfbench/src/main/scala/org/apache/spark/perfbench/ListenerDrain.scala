package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** Blocks until every listener event posted so far has been delivered.
  * `LiveListenerBus.waitUntilEmpty` is package-private to Spark, hence
  * this object's package. Jobs post their end event before their action
  * returns, so after a drain a listener has seen all of a query's work. */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
