package org.apache.spark

/** The listener bus is package-private; the benchmark drains it once, after
  * the measured loop, so that every job and task event has been delivered
  * before the per-tick and per-span counts are read.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
