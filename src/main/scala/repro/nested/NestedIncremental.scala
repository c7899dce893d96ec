package repro.nested

import repro.algebra.Group
import repro.circuit.Op
import repro.core.IncrementalDistinct
import repro.nested.NestedOp.{inner, outer, pastSum}
import repro.zset.ZSet

/** The doubly-incremental bilinear operator `(↑(↑×)^Δ)^Δ` of §6, in the
  * simplified 4-term form (the paper notes the 3×3 expansion collapses to 4
  * terms; the derivation, using 1 + z⁻¹I = I at each level, gives):
  * {{{
  *   out = IᵢIₒ(a) × b  +  Iₒ(a) × Zᵢ(b)  +  Iᵢ(a) × Zₒ(b)  +  a × ZᵢZₒ(b)
  * }}}
  * where Iᵢ/Iₒ are inner/outer integration and Zᵢ = ↑z⁻¹∘↑I, Zₒ = z⁻¹∘I.
  * Every term pairs an integral with a change-sized operand, realizing the
  * §6.2 complexity bound O(‖↑I(s₁)‖ × ‖I(s₂)‖) instead of a full recompute.
  */
final class NestedIncrementalBilinear[A, B, C](times: (A, B) => C)(
    implicit ga: Group[A], gb: Group[B], gc: Group[C]) {

  private val ioA   = outer(Op.integrate[A])   // Iₒ(a)
  private val iiIoA = inner(Op.integrate[A])   // Iᵢ(Iₒ(a))
  private val iiA   = inner(Op.integrate[A])   // Iᵢ(a)
  private val ziB   = inner(pastSum[B])        // Zᵢ(b)
  private val zoB   = outer(pastSum[B])        // Zₒ(b)
  private val ziZoB = inner(pastSum[B])        // Zᵢ(Zₒ(b))

  def newOuterTick(): Unit = {
    ioA.newOuterTick(); iiIoA.newOuterTick(); iiA.newOuterTick()
    ziB.newOuterTick(); zoB.newOuterTick(); ziZoB.newOuterTick()
  }

  def step(a: A, b: B): C = {
    val ioAv   = ioA.step(a)
    val iiIoAv = iiIoA.step(ioAv)
    val iiAv   = iiA.step(a)
    val ziBv   = ziB.step(b)
    val zoBv   = zoB.step(b)
    val ziZoBv = ziZoB.step(zoBv)
    gc.plus(
      gc.plus(times(iiIoAv, b), times(ioAv, ziBv)),
      gc.plus(times(iiAv, zoBv), times(a, ziZoBv)))
  }
}

/** The doubly-incremental distinct `(↑(↑distinct)^Δ)^Δ` of §6, derived as
  * in Figure 2. Definition 3.1 at the outer clock gives
  * {{{
  *   (↑(↑distinct)^Δ)^Δ = Dₒ ∘ ↑(↑distinct)^Δ ∘ Iₒ
  * }}}
  * and Proposition 4.7 replaces the inner (↑distinct)^Δ with H, the
  * [[IncrementalDistinct]] of flat streams. So every inner index keeps the
  * outer integral of its column, each outer tick runs one fresh H over the
  * row of those integrals, and each inner index differentiates H's outputs
  * across outer ticks. H's state is one lazily appended [[repro.zset.Trace]]
  * per outer tick, and H's probes are bounded when their keys are local.
  *
  * Work: H probes with the keys of Iₒ(d), a column of the outer integral of
  * the loop input rather than of this transaction's change, so it probes
  * O(R) keys, not change-sized ones; swapping the composition's axes would
  * make them change-sized (ROADMAP, open item 3). The stored per-iteration
  * integrals give the §6.2 space bound (proportional to iterations ×
  * relation size).
  *
  * Precondition: every row is at least as long as each earlier row, as the
  * rows of [[IncrementalFixpoint]] are (its `minIter`). Then each computed
  * cell equals that of the rectangular run with every row padded by zeros.
  * After a shorter row, `NestedOp.outer`'s ragged-row rule steps the
  * missing cells with zero, so Dₒ forgets H's output there and later cells
  * of that column are not the padded run's.
  */
final class NestedIncrementalDistinct(implicit g: Group[ZSet]) {
  private val integrated  = outer(Op.integrate[ZSet])       // Iₒ
  private val h           = inner(new IncrementalDistinct)  // ↑(↑distinct)^Δ by Prop 4.7
  private val differenced = outer(Op.differentiate[ZSet])   // Dₒ

  def newOuterTick(): Unit = {
    integrated.newOuterTick(); h.newOuterTick(); differenced.newOuterTick()
  }

  def step(d: ZSet): ZSet = differenced.step(h.step(integrated.step(d)))
}
