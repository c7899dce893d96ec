package repro.metrics

import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession

/** Spark jobs launched, and how many of them were broadcast exchanges. */
final case class JobCount(all: Int, broadcast: Int) {
  override def toString: String = s"$all ($broadcast broadcast)"
}

/** Counts the Spark jobs a piece of driver code launches, by kind. Counting
  * adds no Spark action: a listener sees the jobs start.
  */
object JobCounter {
  private val Key = "repro.metrics.count"
  private val ids = new AtomicInteger

  /** Runs `body` and counts the Spark jobs it launched, broadcast jobs
    * included: jobs are told apart by a local property, which jobs started
    * from Spark's own threads on this thread's behalf inherit. Broadcast
    * exchanges are the jobs Spark tags `broadcast exchange (runId …)`.
    */
  def count[A](spark: SparkSession)(body: => A): (A, JobCount) = {
    val sc = spark.sparkContext
    val tag = s"count-${ids.incrementAndGet()}"
    val (all, broadcasts) = (new AtomicInteger, new AtomicInteger)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = {
        def prop(k: String) = Option(e.properties).flatMap(p => Option(p.getProperty(k)))
        if (prop(Key).contains(tag)) {
          all.incrementAndGet()
          if (prop("spark.job.tags").exists(_.split(",").exists(_.startsWith("broadcast exchange"))))
            broadcasts.incrementAndGet()
        }
      }
    }
    sc.addSparkListener(listener)
    sc.setLocalProperty(Key, tag)
    try {
      val out = body
      ListenerBusDrain.drain(sc)
      (out, JobCount(all.get, broadcasts.get))
    } finally {
      sc.setLocalProperty(Key, null)
      sc.removeSparkListener(listener)
    }
  }
}
