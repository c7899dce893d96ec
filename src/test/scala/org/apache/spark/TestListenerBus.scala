package org.apache.spark

/** The listener bus is package-private; tests that count Spark jobs drain it
  * so that every job event has reached their listener before they read it.
  */
object TestListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
