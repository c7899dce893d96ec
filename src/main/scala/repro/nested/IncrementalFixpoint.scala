package repro.nested

import scala.collection.mutable

import repro.circuit.Op
import repro.recursive.{Fixpoint, FixpointStats}
import repro.relational.{CircuitInterpreter, ZExpr}
import repro.relational.ZExpr._
import repro.zset.ZSet

/** A loop body incrementalized at both clocks — Algorithm 4.8 and the chain
  * rule applied once per clock (Theorem 5.4, §6): outer time is input
  * transactions, inner time is fixpoint iterations. Linear nodes run
  * unchanged at both levels; ⋈ and × become [[NestedIncrementalBilinear]]
  * and distinct becomes [[NestedIncrementalDistinct]], each with its
  * operands' groups taken from the schemas of the first values it sees.
  */
final class NestedIncrementalRunner(circuit: ZExpr)
    extends Op[Map[String, ZSet], ZSet] with CircuitInterpreter {
  private val bilinears = mutable.Map.empty[ZExpr, NestedIncrementalBilinear]
  private val distincts = mutable.Map.empty[ZExpr, NestedIncrementalDistinct]

  /** Advance outer time; the next `step` is inner iteration 0. */
  def newOuterTick(): Unit = {
    bilinears.values.foreach(_.newOuterTick())
    distincts.values.foreach(_.newOuterTick())
  }

  protected def bilinear(node: ZExpr, a: ZSet, b: ZSet, keys: Seq[String])(times: (ZSet, ZSet) => ZSet): ZSet =
    bilinears.getOrElseUpdate(node,
      new NestedIncrementalBilinear(keys, times)(ZSet.groupOf(a), ZSet.groupOf(b))).step(a, b)
  protected def distinct(node: ZDistinct, in: ZSet): ZSet =
    distincts.getOrElseUpdate(node, new NestedIncrementalDistinct()(ZSet.groupOf(in))).step(in)

  def step(inputs: Map[String, ZSet]): ZSet = walk(circuit, inputs)
}

/** The recursive query `R = distinct(body(I₁…Iₘ, R))`, with `R` the body's
  * input named "R", maintained under changes of its inputs — the circuit of §6.1 (Figure 2) for any `body`:
  * {{{
  *   ΔI → ↑δ₀ → (↑(↑distinct ∘ ↑body)^Δ)^Δ with ↑z⁻¹ feedback → ↑∫ → ΔR
  * }}}
  * Each `step` takes one transaction's input changes and returns the view
  * change. Every nested node probes its state with values of this
  * transaction alone (see [[NestedIncrementalBilinear]] and
  * [[NestedIncrementalDistinct]]): with local changes an iteration launches
  * only bounded probes, and an empty transaction no Spark job. Past every
  * earlier transaction's last iteration the outer state is zero, so the
  * loop may stop at the first zero delta from there on; before that a zero
  * delta may still be followed by changes that the outer state brings in.
  */
final class IncrementalFixpoint(body: ZExpr, recEmpty: ZSet) {
  private val runner = new NestedIncrementalRunner(ZDistinct(body))
  private var prevMaxIter = 0

  def step(deltas: Map[String, ZSet]): (ZSet, FixpointStats) = {
    runner.newOuterTick()
    val (dR, stats) = Fixpoint.loop(runner, deltas, recEmpty, minIter = prevMaxIter)
    prevMaxIter = math.max(prevMaxIter, stats.iterations)
    (dR, stats)
  }
}
