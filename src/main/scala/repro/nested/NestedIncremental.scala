package repro.nested

import repro.algebra.Group
import repro.circuit.Op
import repro.core.{IncrementalBilinear, IncrementalDistinct}
import repro.nested.NestedOp.{inner, outer}
import repro.zset.{Trace, ZSet}

/** A bilinear operator × as [[NestedIncrementalBilinear]] evaluates it: the
  * product itself, the running sums the operator keeps of its operands (I of
  * the left one, z⁻¹I of the right one), and the product of a state (a sum
  * over outer time, O(R)) with a change-sized value of the other operand.
  * By default the sums are `Op.integrate` and every product is × itself, so
  * any `(A, B) => C` function is a `Bilinear`; [[Bilinear.zsets]] keeps
  * Z-set sums in traces and probes them.
  */
trait Bilinear[A, B, C] {
  def apply(a: A, b: B): C
  def integral(implicit g: Group[A]): Op[A, A] = Op.integrate[A]
  def pastSum(implicit g: Group[B]): Op[B, B] = NestedOp.pastSum[B]
  def stateTimes(state: A, change: B): C = apply(state, change)
  def timesState(change: A, state: B): C = apply(change, state)
}

object Bilinear {
  /** ⋈ on `keys` (× without keys) of Z-sets: every running sum is appended
    * lazily to a trace ([[Trace.integral]], [[Trace.pastSum]]), and every
    * product probes the state with the change ([[IncrementalBilinear.probed]]).
    */
  def zsets(keys: Seq[String])(times: (ZSet, ZSet) => ZSet): Bilinear[ZSet, ZSet, ZSet] =
    new Bilinear[ZSet, ZSet, ZSet] {
      def apply(a: ZSet, b: ZSet): ZSet = times(a, b)
      override def integral(implicit g: Group[ZSet]): Op[ZSet, ZSet] = Trace.integral
      override def pastSum(implicit g: Group[ZSet]): Op[ZSet, ZSet] = Trace.pastSum
      override def stateTimes(state: ZSet, change: ZSet): ZSet =
        IncrementalBilinear.probed(state, change, keys)(times)
      override def timesState(change: ZSet, state: ZSet): ZSet =
        IncrementalBilinear.probed(state, change, keys)((s, c) => times(c, s))
    }
}

/** The doubly-incremental bilinear operator `(↑(↑×)^Δ)^Δ` of §6, in the
  * simplified 4-term form (the paper notes the 3×3 expansion collapses to 4
  * terms; the derivation, using 1 + z⁻¹I = I at each level, gives):
  * {{{
  *   out = IᵢIₒ(a) × b  +  Iₒ(a) × Zᵢ(b)  +  Iᵢ(a) × Zₒ(b)  +  a × ZᵢZₒ(b)
  * }}}
  * where Iᵢ/Iₒ are inner/outer integration and Zᵢ = ↑z⁻¹∘↑I, Zₒ = z⁻¹∘I.
  * Every term pairs a state, a sum over earlier outer ticks (IᵢIₒ(a),
  * Iₒ(a), Zₒ(b), ZᵢZₒ(b)), with a value of this outer tick alone (b, Zᵢ(b),
  * Iᵢ(a), a): the §6.2 bound O(‖↑I(s₁)‖ × ‖I(s₂)‖) instead of a full
  * recompute.
  *
  * Work per step over Z-sets ([[Bilinear.zsets]]): six lazy trace appends,
  * which cost no job until a trace's consolidation, and four products. A
  * product with a known-zero side costs nothing; otherwise the state is
  * probed with the change-sized operand, one Spark job when the state is
  * Spark-held and the operand local, and the product finishes on the
  * driver.
  */
final class NestedIncrementalBilinear[A, B, C](times: Bilinear[A, B, C])(
    implicit ga: Group[A], gb: Group[B], gc: Group[C]) {

  private val ioA   = outer(times.integral)   // Iₒ(a)
  private val iiIoA = inner(times.integral)   // Iᵢ(Iₒ(a))
  private val iiA   = inner(times.integral)   // Iᵢ(a)
  private val ziB   = inner(times.pastSum)    // Zᵢ(b)
  private val zoB   = outer(times.pastSum)    // Zₒ(b)
  private val ziZoB = inner(times.pastSum)    // Zᵢ(Zₒ(b))

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
      gc.plus(times.stateTimes(iiIoAv, b), times.stateTimes(ioAv, ziBv)),
      gc.plus(times.timesState(iiAv, zoBv), times.timesState(a, ziZoBv)))
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
