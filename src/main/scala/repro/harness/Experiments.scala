package repro.harness

import org.apache.spark.sql.SparkSession

import repro.harness.experiments._
import repro.jobs.Jobs

/** A shape check of an experiment's result: the claim with the measured
  * values, whether it reads wall-clock time, and whether it holds. Wall-clock
  * checks hold only at full size, where the work dwarfs Spark's per-job cost.
  */
final case class Check(claim: String, wallClock: Boolean, holds: Boolean)

/** An experiment of EXPERIMENTS.md, declared once: its full size (the one
  * EXPERIMENTS.md reports), its toy size (run in the unit tests), its run,
  * its table and its shape checks.
  */
trait Experiment {
  type Size
  type Result
  val id: String
  val full: Size
  val toy: Size
  def run(spark: SparkSession, size: Size): Result
  def emit(r: Result): Unit
  def checks(r: Result): Seq[Check]

  /** Run at `size`, print the table and return the checks. */
  final def apply(spark: SparkSession, size: Size): Seq[Check] = {
    val r = run(spark, size)
    emit(r)
    checks(r)
  }
}

/** `sbt "runMain repro.harness.Experiments [T1 E1 … E7]"`: runs the named
  * experiments (all of them without arguments) at full size, prints their
  * tables and exits non-zero if any check fails.
  */
object Experiments {
  val all: Seq[Experiment] = Seq(T1OperatorMatrix, E1RelationalIvm, E2IncrementalJoin,
    E3IncrementalDistinct, E4SemiNaive, E5IncrementalRecursion, E6Aggregates, E7Window)

  def main(args: Array[String]): Unit = {
    val chosen = if (args.isEmpty) all else args.toSeq.map(a =>
      all.find(_.id == a).getOrElse(sys.error(s"unknown experiment $a; one of ${all.map(_.id).mkString(" ")}")))
    val spark = Jobs.session("dbsp-experiments")
    val failed =
      try chosen.flatMap(e => e(spark, e.full).filterNot(_.holds).map(c => s"${e.id}: ${c.claim}"))
      finally spark.stop()
    failed.foreach(f => Console.err.println(s"check failed: $f"))
    if (failed.nonEmpty) sys.exit(1)
  }
}
