package perfbench

import scala.collection.mutable

import org.apache.spark.SparkContext

/** Spans around the benchmark's calls into each layer. A disabled tracer
  * runs the body and nothing else. An enabled one tags the body's Spark jobs
  * with the span name (a local property, so no Spark action is added) and
  * keeps the span's wall time in memory.
  */
final class Tracer(sc: SparkContext, val enabled: Boolean) {
  private val ms = mutable.LinkedHashMap.empty[String, mutable.Buffer[Double]]
  private val counters = mutable.LinkedHashMap.empty[String, mutable.Buffer[Double]]

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val outer = sc.getLocalProperty(Tags.Span)
      sc.setLocalProperty(Tags.Span, name)
      val t0 = System.nanoTime()
      try body
      finally {
        ms.getOrElseUpdate(name, mutable.Buffer.empty) += (System.nanoTime() - t0) / 1e6
        sc.setLocalProperty(Tags.Span, outer)
      }
    }

  /** Record one observation of a count the program reports (e.g. `IncTcStats`). */
  def count(name: String, v: Double): Unit =
    if (enabled) counters.getOrElseUpdate(name, mutable.Buffer.empty) += v

  /** Wall times of every occurrence of `name`. */
  def spanMs(name: String): Seq[Double] = ms.get(name).map(_.toSeq).getOrElse(Nil)

  /** Mean of a recorded count, 0 if never observed. */
  def countMean(name: String): Double =
    counters.get(name).filter(_.nonEmpty).map(b => b.sum / b.size).getOrElse(0.0)
}
