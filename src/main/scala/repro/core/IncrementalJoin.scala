package repro.core

import repro.circuit.Op2
import repro.core.IncrementalBilinear.probed
import repro.zset.{Trace, ZSet}

/** The efficient incremental form of a bilinear operator × (Theorem 3.4,
  * with 1 + z⁻¹I = I folding its Δa × Δb term into the first product):
  * {{{
  *   Δ(a × b) = I(a) × Δb + Δa × z⁻¹(I(b))
  * }}}
  * The two integrals are the operator's state (space O(R), §4.5), kept in
  * [[Trace]]s so each tick costs O(C): the change is compacted and appended,
  * the state is not rewritten. Each product is [[IncrementalBilinear.probed]]:
  * the Spark-held operand probed with the local one's `keys` (all of it for
  * ×), the product finished on the driver when the probe is bounded. I(a) is
  * probed after Δa is appended, z⁻¹(I(b)) before Δb is.
  */
class IncrementalBilinear(keys: Seq[String], times: (ZSet, ZSet) => ZSet)
    extends Op2[ZSet, ZSet, ZSet] {
  private val ia = new Trace // I(a)
  private val ib = new Trace // I(b), z⁻¹(I(b)) until Δb is appended

  def step(da: ZSet, db: ZSet): ZSet = delta(da.compact(), db.compact())

  /** The rule applied to `da` and `db` as given, uncompacted: the nested
    * operator runs it at the inner clock on outer sums.
    */
  private[repro] def delta(da: ZSet, db: ZSet): ZSet = {
    ia.append(da)
    val now = probed(ia, db, keys)(times)
    // Δa × z⁻¹(I(b)) is zero, and skipped, while z⁻¹(I(b)) is.
    val out = if (ib.isEmpty) now else now.plus(probed(ib, da, keys)((s, c) => times(c, s)))
    ib.append(db)
    out
  }
}

object IncrementalBilinear {
  /** The product of a `state` (an integral) with a `change`, `times` taking
    * them in that order. Whichever operand Spark holds is probed with the
    * local one's `keys` and the product finished on the driver: the state
    * when the change is local ([[Trace.bounded]], by its index or one Spark
    * job), else the change when the state is. When neither probe is
    * bounded, the product with the change side broadcast.
    */
  def probed(state: Trace, change: ZSet, keys: Seq[String])(times: (ZSet, ZSet) => ZSet): ZSet =
    state.bounded(change, keys).map(times(_, change))
      .orElse(Trace.bounded(change, state.value, keys).map(times(state.value, _)))
      .getOrElse(times(state.value, change.broadcastHint))
}

/** The incremental equi-join ⋈ on the shared `keys` columns. */
final class IncrementalJoin(keys: Seq[String]) extends IncrementalBilinear(keys, _.join(_, keys))

/** The incremental Cartesian product ×. */
final class IncrementalCartesian extends IncrementalBilinear(Nil, _.cartesian(_))
