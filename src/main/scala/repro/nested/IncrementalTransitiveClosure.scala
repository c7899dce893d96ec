package repro.nested

import org.apache.spark.sql.SparkSession

import repro.recursive.TransitiveClosure
import repro.zset.ZSet

/** Per-update statistics for the incremental recursive query (experiment E5). */
final case class IncTcStats(innerIterations: Int, deltaSizesPerIteration: Seq[Long]) {
  def totalDelta: Long = deltaSizesPerIteration.sum
}

/** The incrementally-maintained transitive closure — the final circuit of
  * §6.1 (Figure 2): [[IncrementalFixpoint]] over the rules of
  * [[TransitiveClosure.body]], one transaction ΔE per `step`. The join of
  * the recursive rule becomes a [[NestedIncrementalBilinear]] (Theorem 3.4
  * at the outer clock around two flat incremental joins), the distinct a
  * [[NestedIncrementalDistinct]], and the linear base-rule maps
  * pass deltas through unchanged at both levels.
  */
final class IncrementalTransitiveClosure(spark: SparkSession) {
  private val fixpoint = new IncrementalFixpoint(TransitiveClosure.body, TransitiveClosure.emptyR(spark))

  /** Apply one transaction ΔE; returns the view change ΔR = ↑∫(loop output). */
  def step(deltaE: ZSet): (ZSet, IncTcStats) = {
    val (dR, stats) = fixpoint.step(Map("E" -> deltaE))
    (dR, IncTcStats(stats.iterations, stats.workPerIteration))
  }
}
