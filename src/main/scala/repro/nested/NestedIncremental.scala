package repro.nested

import repro.algebra.Group
import repro.circuit.Op
import repro.core.IncrementalBilinear.probed
import repro.core.IncrementalDistinct
import repro.nested.NestedOp.{inner, outer}
import repro.zset.{Trace, ZSet}

/** The doubly-incremental bilinear operator `(↑(↑×)^Δ)^Δ` of §6, for ⋈ on
  * `keys` (× without keys) of Z-sets: Theorem 3.4's one rule,
  * Δ(a × b) = I(a) × Δb + Δa × z⁻¹I(b), applied once at each clock:
  * {{{
  *   out = IᵢIₒ(a) × b  +  Iₒ(a) × Zᵢ(b)  +  Iᵢ(a) × Zₒ(b)  +  a × ZᵢZₒ(b)
  * }}}
  * where Iᵢ/Iₒ are inner/outer integration and Zᵢ = ↑z⁻¹∘↑I, Zₒ = z⁻¹∘I.
  * Every term pairs a state, a sum over earlier outer ticks (IᵢIₒ(a),
  * Iₒ(a), Zₒ(b), ZᵢZₒ(b)), with a value of this outer tick alone (b, Zᵢ(b),
  * Iᵢ(a), a): the §6.2 bound O(‖↑I(s₁)‖ × ‖I(s₂)‖) instead of a full
  * recompute. `ga` and `gb` are the groups of the two operands, whose zeros
  * pad the outer sums' columns past a short row (see [[NestedOp.outer]]).
  *
  * Work per step: six lazy trace appends ([[Trace.integral]],
  * [[Trace.pastSum]]), which cost no job until a trace's consolidation, and
  * four [[IncrementalBilinear.probed]] products. A product with a known-zero
  * side costs nothing; otherwise the state is probed with the change-sized
  * operand, one Spark job when the state is Spark-held and the operand
  * local, and the product finishes on the driver.
  */
final class NestedIncrementalBilinear(keys: Seq[String], times: (ZSet, ZSet) => ZSet)(
    ga: Group[ZSet], gb: Group[ZSet]) {

  private val ioA   = outer(Trace.integral)(ga)   // Iₒ(a)
  private val iiIoA = inner(Trace.integral)       // Iᵢ(Iₒ(a))
  private val iiA   = inner(Trace.integral)       // Iᵢ(a)
  private val ziB   = inner(Trace.pastSum)        // Zᵢ(b)
  private val zoB   = outer(Trace.pastSum)(gb)    // Zₒ(b)
  private val ziZoB = inner(Trace.pastSum)        // Zᵢ(Zₒ(b))

  def newOuterTick(): Unit = {
    ioA.newOuterTick(); iiIoA.newOuterTick(); iiA.newOuterTick()
    ziB.newOuterTick(); zoB.newOuterTick(); ziZoB.newOuterTick()
  }

  def step(a: ZSet, b: ZSet): ZSet = {
    val ioAv   = ioA.step(a)
    val iiIoAv = iiIoA.step(ioAv)
    val iiAv   = iiA.step(a)
    val ziBv   = ziB.step(b)
    val zoBv   = zoB.step(b)
    val ziZoBv = ziZoB.step(zoBv)
    val flipped = (state: ZSet, change: ZSet) => times(change, state)
    probed(iiIoAv, b, keys)(times).plus(probed(ioAv, ziBv, keys)(times))
      .plus(probed(zoBv, iiAv, keys)(flipped)).plus(probed(ziZoBv, a, keys)(flipped))
  }
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
    diff.step(IncrementalDistinct.h(before.step(past.step(dc)), prefix.step(dc)))
  }
}
