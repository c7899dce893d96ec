package repro.nested

import scala.collection.mutable

import org.apache.spark.sql.functions._

import repro.algebra.Group
import repro.circuit.Op
import repro.nested.NestedOp.{inner, outer, pastSum}
import repro.zset.{Trace, ZSet}

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

/** The doubly-incremental distinct `(↑(↑distinct)^Δ)^Δ` of §6 (expanded in
  * Figure 2 via Proposition 4.7).
  *
  * Writing c(t₁,t₂) for the fully-integrated input and f(v) = [v > 0], the
  * output at (t₁,t₂) is the double difference
  * {{{
  *   out[x] = (f(c₁₁[x]) − f(c₁₀[x])) − (f(c₀₁[x]) − f(c₀₀[x]))
  * }}}
  * over the four corners c₁₁ = c(t₁,t₂), c₁₀ = c(t₁,t₂−1), c₀₁ = c(t₁−1,t₂),
  * c₀₀ = c(t₁−1,t₂−1). A key can only contribute when one of the two
  * *column deltas* e₁ = c₁₁−c₁₀ = Iₒ(d)[t₁][t₂] or e₀ = c₀₁−c₀₀ =
  * Iₒ(d)[t₁−1][t₂] is non-zero on it. These are columns of the outer
  * integral of the input, not of this transaction's change, so the candidate
  * set supp(e₁) ∪ supp(e₀) is O(R) keys: on a 5×20 DAG a single-edge update
  * probes 330–685 keys per inner step where its row prefix has 3–32.
  * Taking the double difference along the row axis instead would make it
  * change-sized (ROADMAP, open item 3). The stored per-iteration integrals
  * give the §6.2 space bound (proportional to iterations × relation size).
  */
final class NestedIncrementalDistinct(implicit g: Group[ZSet]) {
  // Outer integral of the input per inner index; read-before-update gives e₀.
  private val ioD = mutable.ArrayBuffer.empty[ZSet]
  // Fully-integrated input per inner index, previous outer tick: c(t₁−1, j).
  private var prevCum: IndexedSeq[ZSet] = IndexedSeq.empty
  private val curCum = mutable.ArrayBuffer.empty[ZSet]
  private var t2 = 0

  def newOuterTick(): Unit = {
    prevCum = curCum.toIndexedSeq
    curCum.clear()
    t2 = 0
  }

  /** c(t₁−1, j): after its own convergence a row's cumulative is constant,
    * so reads past the recorded prefix clamp to the last value.
    */
  private def prevAt(j: Int): ZSet =
    if (j < 0 || prevCum.isEmpty) g.zero
    else prevCum(math.min(j, prevCum.size - 1))

  def step(d: ZSet): ZSet = {
    val e0 = if (t2 < ioD.size) ioD(t2) else g.zero
    val e1 = g.compact(g.plus(e0, d))
    if (t2 < ioD.size) ioD(t2) = e1 else ioD += e1

    val c10 = if (t2 == 0) g.zero else curCum(t2 - 1)
    val c00 = prevAt(t2 - 1)

    val out = NestedIncrementalDistinct.doubleH(c10, c00, e1, e0)

    curCum += g.compact(g.plus(c10, e1))
    t2 += 1
    out
  }
}

object NestedIncrementalDistinct {
  /** Evaluate the double difference of f over the four corners, restricted to
    * the union of the supports of e₁ and e₀ (c₁₁ = c₁₀+e₁, c₀₁ = c₀₀+e₀).
    * Known-zero column deltas give a known zero.
    */
  def doubleH(c10: ZSet, c00: ZSet, e1: ZSet, e0: ZSet): ZSet =
    if (e1.isKnownZero && e0.isKnownZero) e1
    else {
      val W = ZSet.W
      val keys = e1.dataCols
      // Candidate keys: anything either column delta touches, weight 1.
      val cand = support(e1).plus(support(e0)).distinctZ

      // Probe the big cumulative corners with the candidate keys first, then
      // join the small rest to the candidates, null keys matching null.
      val joined = Seq(c10 -> "__c10", c00 -> "__c00", e1 -> "__e1", e0 -> "__e0")
        .foldLeft(cand.df.drop(W)) { case (acc, (z, n)) =>
          val corner = Trace.probe(z, cand, keys).consolidate().df
            .select(keys.map(k => col(k) as s"$n$k") :+ (col(W) as n): _*)
          val on = keys.map(k => col(k) <=> col(s"$n$k")).reduceOption(_ && _).getOrElse(lit(true))
          acc.join(broadcast(corner), on, "left_outer").drop(keys.map(k => s"$n$k"): _*)
        }

      val w10 = coalesce(col("__c10"), lit(0L))
      val w00 = coalesce(col("__c00"), lit(0L))
      val w11 = w10 + coalesce(col("__e1"), lit(0L))
      val w01 = w00 + coalesce(col("__e0"), lit(0L))
      def f(v: org.apache.spark.sql.Column) = when(v > 0, 1L).otherwise(0L)
      val weight = (f(w11) - f(w10)) - (f(w01) - f(w00))

      ZSet.raw(
        joined
          .withColumn(W, weight)
          .drop("__c10", "__c00", "__e1", "__e0")
          .where(col(W) =!= 0))
    }

  private def support(z: ZSet): ZSet =
    ZSet.raw(z.consolidate().df.withColumn(ZSet.W, lit(1L)))
}
