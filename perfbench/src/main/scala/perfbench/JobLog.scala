package perfbench

import scala.collection.mutable

import org.apache.spark.{ListenerBusAccess, SparkContext}
import org.apache.spark.scheduler._

/** Local-property keys the harness sets on the driver thread. Jobs submitted
  * while a key is set carry it in their properties; broadcast-exchange jobs,
  * launched from Spark's own thread pool, inherit the submitter's properties.
  */
object Tags {
  val Tick = "perfbench.tick"
  val Span = "perfbench.span"
}

/** One Spark job with the tags it was launched under and the sums of its
  * tasks' metrics. `broadcast` marks the jobs of a broadcast exchange, which
  * Spark 4 labels with a `broadcast exchange (runId …)` job tag.
  */
final class JobRecord(val tick: Option[String], val span: Option[String],
                      val broadcast: Boolean, val startMs: Long) {
  var endMs: Long = startMs
  var tasks: Long = 0L
  var busyMs: Long = 0L
  var shuffleBytes: Long = 0L
  var recordsRead: Long = 0L
  def durationMs: Long = endMs - startMs
}

/** Collects job and task events. Recording happens on Spark's listener
  * thread and adds no Spark action; the records are read only after the
  * measured loop, through `jobs`.
  */
final class JobLog extends SparkListener {
  private val byId = mutable.LinkedHashMap.empty[Int, JobRecord]
  private val stageJob = mutable.HashMap.empty[Int, Int]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    def prop(k: String) = Option(e.properties).flatMap(p => Option(p.getProperty(k)))
    byId(e.jobId) = new JobRecord(prop(Tags.Tick), prop(Tags.Span),
      prop("spark.job.tags").exists(_.split(",").exists(_.startsWith("broadcast exchange"))), e.time)
    // A stage reused by a later job is skipped there; its tasks ran for the first.
    e.stageIds.foreach(s => stageJob.getOrElseUpdate(s, e.jobId))
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    byId.get(e.jobId).foreach(_.endMs = e.time)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (j <- stageJob.get(e.stageId); r <- byId.get(j); m <- Option(e.taskMetrics)) {
      r.tasks += 1
      r.busyMs += m.executorRunTime
      r.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
      r.recordsRead += m.inputMetrics.recordsRead + m.shuffleReadMetrics.recordsRead
    }
  }

  /** Every job seen so far, after all pending events have been delivered. */
  def jobs(sc: SparkContext): Seq[JobRecord] = {
    ListenerBusAccess.drain(sc)
    synchronized(byId.values.toSeq)
  }
}
