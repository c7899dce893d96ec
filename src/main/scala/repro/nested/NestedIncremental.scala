package repro.nested

import repro.algebra.Group
import repro.circuit.Op
import repro.core.{IncrementalBilinear, IncrementalDistinct}
import repro.nested.NestedOp.{inner, outer}
import repro.zset.{Trace, ZSet}

/** The doubly-incremental bilinear operator `(↑(↑×)^Δ)^Δ` of §6, for ⋈ on
  * `keys` (× without keys) of Z-sets: Theorem 3.4's rule at the outer clock,
  * whose product ×ᵢ is the flat [[IncrementalBilinear]] lifted, the same
  * rule at the inner clock:
  * {{{
  *   out = Iₒ(a) ×ᵢ b + a ×ᵢ Zₒ(b)          where  x ×ᵢ y = Iᵢ(x) × y + x × Zᵢ(y)
  *       = IᵢIₒ(a) × b + Iₒ(a) × Zᵢ(b) + Iᵢ(a) × Zₒ(b) + a × ZᵢZₒ(b)
  * }}}
  * where Iᵢ/Iₒ are inner/outer integration and Zᵢ = ↑z⁻¹∘↑I, Zₒ = z⁻¹∘I.
  * Every term pairs a state, a sum over earlier outer ticks (IᵢIₒ(a),
  * Iₒ(a), Zₒ(b), ZᵢZₒ(b)), with a value of this outer tick alone (b, Zᵢ(b),
  * Iᵢ(a), a): the §6.2 bound O(‖↑I(s₁)‖ × ‖I(s₂)‖) instead of a full
  * recompute. `ga` and `gb` are the groups of the two operands, whose zeros
  * pad the outer sums' columns past a short row (see [[NestedOp.outer]]).
  *
  * Work per step: two outer sums appended to their column's trace, and two
  * flat rules ([[IncrementalBilinear.delta]]), each two lazy trace appends
  * and two probed products; no trace costs a job until its consolidation.
  * A product with a known-zero side costs nothing; otherwise the Spark-held
  * side is probed with the change-sized one, one Spark job, and the product
  * finishes on the driver.
  */
final class NestedIncrementalBilinear(keys: Seq[String], times: (ZSet, ZSet) => ZSet)(
    ga: Group[ZSet], gb: Group[ZSet]) {

  private val ioA = outer(Trace.integral)(ga) // Iₒ(a)
  private val zoB = outer(Trace.pastSum)(gb)  // Zₒ(b)
  private var left = new IncrementalBilinear(keys, times)  // Iₒ(a) ×ᵢ b: traces IᵢIₒ(a), Zᵢ(b)
  private var right = new IncrementalBilinear(keys, times) // a ×ᵢ Zₒ(b): traces Iᵢ(a), ZᵢZₒ(b)

  def newOuterTick(): Unit = {
    ioA.newOuterTick(); zoB.newOuterTick()
    left = new IncrementalBilinear(keys, times); right = new IncrementalBilinear(keys, times)
  }

  def step(a: ZSet, b: ZSet): ZSet =
    left.delta(ioA.step(a), b).plus(right.delta(a, zoB.step(b)))
}

/** The doubly-incremental distinct `(↑(↑distinct)^Δ)^Δ` of §6 (Figure 2),
  * with the Prop 4.7 H of [[IncrementalDistinct]] run along outer time. Let
  * c(t₁, t₂) = Σ_{t₁'≤t₁, t₂'≤t₂} d be the input integrated over both times.
  * The output is
  * {{{
  *   out = Dᵢ(distinct(c(t₁, ·)) − distinct(c(t₁−1, ·)))
  *       = Dᵢ(H(c(t₁−1, ·), c(t₁, ·) − c(t₁−1, ·)))
  * }}}
  * and both arguments of H are integrals of the input:
  *   - c(t₁−1, t₂) = Iᵢ(Zₒ(d)), the inner integral of the column past sums
  *     (Zₒ = z⁻¹∘I);
  *   - c(t₁, t₂) − c(t₁−1, t₂) = Iᵢ(d), this outer tick's row prefix.
  * So the operator is Dᵢ ∘ H(Iᵢ(Zₒ(d)), Iᵢ(d)). H probes the state
  * Iᵢ(Zₒ(d)) with the keys of the row prefix, which depends on this
  * transaction alone, so the probe is change-sized. An inner index that
  * earlier rows never reached starts at zero, as those rows were zero there;
  * so for rows of any length every computed cell equals that of the run on
  * the matrix with each row padded by zeros.
  *
  * Work per step: the input is compacted once (no job when it is local) and
  * appended to its column's trace, and that column's past sum to this row's
  * trace (lazy appends, no job until a consolidation). H then probes the
  * state with the row prefix: nothing when the prefix is zero, one Spark job
  * when the state is Spark-held and the prefix local (a bounded probe),
  * after which H and Dᵢ finish on the driver. A transaction whose changes
  * are all zero costs no job.
  * State: the column traces, one per inner index, the §6.2 space bound
  * (iterations × relation size).
  */
final class NestedIncrementalDistinct(implicit g: Group[ZSet]) {
  private val past   = outer(Trace.pastSum)            // Zₒ(d)
  private val before = inner(Trace.integral)           // Iᵢ(Zₒ(d)) = c(t₁−1, ·)
  private val prefix = inner(Op.integrate[ZSet])       // Iᵢ(d)
  private val diff   = inner(Op.differentiate[ZSet])   // Dᵢ

  def newOuterTick(): Unit = {
    past.newOuterTick(); before.newOuterTick(); prefix.newOuterTick(); diff.newOuterTick()
  }

  def step(d: ZSet): ZSet = {
    val dc = d.compact()
    val (state, row) = (before.step(past.step(dc)), prefix.step(dc))
    diff.step(IncrementalDistinct.h(Trace.probe(state, row, row.dataCols), row))
  }
}
