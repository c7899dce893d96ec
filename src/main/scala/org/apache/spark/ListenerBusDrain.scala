package org.apache.spark

/** The listener bus is package-private; code that counts Spark jobs drains
  * it so that every job event has reached its listener before it is read.
  */
object ListenerBusDrain {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
