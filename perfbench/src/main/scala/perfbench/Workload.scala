package perfbench

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{Row, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types._

import repro.zset.ZSet

/** One transaction of a workload's change stream, as handed to the program. */
final case class Change(delta: ZSet, rows: Long)

/** Checker outcome: failures of the real views, and how many perturbed
  * copies the checker failed to flag.
  */
final case class Checked(failures: Seq[String], undetected: Int)

/** One bulk-loaded copy of a workload's views. */
trait Instance {
  /** Apply one transaction to every view and materialize each output delta.
    * This is the timed tick.
    */
  def tick(c: Change, tr: Tracer): Seq[ZSet]

  /** Driver-side integrals of each view's output deltas, bulk load included. */
  def views: Seq[Integral]
}

/** A change-stream workload: seeded data, bulk load, a seeded stream of
  * transactions, and a checker for the integrated views.
  */
trait Workload {
  /** Generate the data and bulk-load a fresh instance (tick 0). Returns the
    * instance and its materialized bulk-load outputs.
    */
  def setup(): (Instance, Seq[ZSet])

  /** The next transaction of the stream; also advances the driver-side
    * snapshot that the checker compares against.
    */
  def nextChange(): Change

  /** Compare each instance's integrated views with from-scratch evaluation
    * of the current snapshot, and the first instance's once with DuckDB.
    * Then run the same comparison on copies of the first instance's views
    * that each carry one deliberately wrong delta: a checker that misses one
    * of them is itself broken.
    */
  def check(insts: Seq[Instance], tr: Tracer): Checked
}

/** Materialize an output delta the way a consumer of the view would: cut
  * its lineage and count it.
  */
object Materialize {
  def apply(z: ZSet): ZSet = {
    val c = z.compact()
    c.physicalCount
    c
  }
}

/** The integral of a view's output deltas, kept on the driver so that
  * integrating a delta costs one `collect` outside the timed tick and holds
  * no Spark storage that would count as program state.
  */
final class Integral(val schema: StructType) {
  private val w = mutable.HashMap.empty[Seq[Any], Long]

  def add(z: ZSet): Unit = {
    val n = z.dataCols.size
    z.df.select((z.dataCols :+ ZSet.W).map(col): _*)
      .collect().foreach { r =>
        val k = (0 until n).map(r.get)
        val v = w.getOrElse(k, 0L) + r.getLong(n)
        if (v == 0L) w.remove(k) else w(k) = v
      }
  }

  def entries: Iterator[(Seq[Any], Long)] = w.iterator

  /** A copy holding only the entries whose tuple satisfies `keep`. */
  def restrict(keep: Seq[Any] => Boolean): Integral = {
    val c = new Integral(schema)
    c.w ++= w.filter { case (k, _) => keep(k) }
    c
  }

  /** A copy with `extra` weights added: used to build perturbed views. */
  def plus(extra: Seq[(Seq[Any], Long)]): Integral = {
    val c = new Integral(schema)
    c.w ++= w
    extra.foreach { case (k, v) =>
      val s = c.w.getOrElse(k, 0L) + v
      if (s == 0L) c.w.remove(k) else c.w(k) = s
    }
    c
  }

  def toZSet(spark: SparkSession): ZSet = {
    val full = StructType(schema.fields :+ StructField(ZSet.W, LongType, nullable = false))
    val rows = w.iterator.map { case (k, v) => Row.fromSeq(k :+ v) }.toSeq
    ZSet.raw(spark.createDataFrame(rows.asJava, full))
  }
}
