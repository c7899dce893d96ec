package repro.recursive

import scala.collection.mutable

import repro.circuit.Op
import repro.relational.{BatchEval, IncrementalRunner, ZExpr}
import repro.zset.ZSet

/** Per-run fixpoint statistics: the work metrics behind the naïve vs
  * semi-naïve comparison (§5.1 / experiment E4).
  *
  * @param iterations          number of loop iterations until the fixpoint
  * @param workPerIteration    tuples produced by the loop body per iteration
  *                            (full relation for naïve, delta for semi-naïve)
  */
final case class FixpointStats(iterations: Int, workPerIteration: Seq[Long]) {
  def totalWork: Long = workPerIteration.sum
}

/** Fixpoint evaluation of recursive queries (§5). A recursive query is an
  * equation `R = distinct(body(I₁…Iₘ, R))` with `body` a non-recursive Z-set
  * circuit over the input relations and the recursive relation, which the
  * body reads as its input "R".
  */
object Fixpoint {

  val DefaultMaxIter = 10000

  /** The one `x ← Q(x)` loop: from `x0`, apply `q` until `x` stops
    * changing and return the reached fixpoint. `q` need not be monotone, so
    * termination is not guaranteed; `maxIter` applications of `q` without a
    * fixpoint throw. The work of an iteration is the size of `Q(x)`.
    */
  def iterate(x0: ZSet, q: ZSet => ZSet, maxIter: Int = DefaultMaxIter): (ZSet, FixpointStats) = {
    val work = mutable.Buffer.empty[Long]
    var x = x0.compact()
    var done = false
    while (!done) {
      require(work.size < maxIter, s"iterate: no fixpoint after $maxIter iterations")
      val next = q(x).compact()
      work += next.entryCount
      done = next.minus(x).isEmpty
      x = next
    }
    (x, FixpointStats(work.size, work.toSeq))
  }

  /** Naïve evaluation (the circuit of Theorem 5.4, Algorithm 1 of [11]):
    * [[iterate]] `x ← S(x)` with `S(x) = distinct(body(I…, x))` from the
    * empty relation. Each iteration re-derives *all* facts.
    */
  def naive(body: ZExpr, inputs: Map[String, ZSet], recEmpty: ZSet): (ZSet, FixpointStats) =
    iterate(recEmpty, x => BatchEval.eval(body, inputs + ("R" -> x)).distinctZ)

  /** Semi-naïve evaluation (circuit 5.1, Algorithm 2 of [11]): the loop body
    * is the *incrementalized* circuit `(↑distinct ∘ ↑body)^Δ` run by
    * [[IncrementalRunner]] around the feedback [[loop]]. Correctness is the
    * cycle rule of Proposition 3.2.
    *
    * `body` must NOT be wrapped in a top-level distinct — it is added here,
    * mirroring the `distinct ∘ R` composition called T in §6.
    */
  def semiNaive(body: ZExpr, inputs: Map[String, ZSet], recEmpty: ZSet): (ZSet, FixpointStats) =
    loop(new IncrementalRunner(ZExpr.ZDistinct(body)), inputs, recEmpty, minIter = 0)

  /** The δ₀ → body → z⁻¹ feedback → ∫ loop around an incremental loop body:
    * the inputs enter as δ₀(Iₖ) (only at iteration 0), the body's output
    * delta is fed back as "R" at the next iteration, and the non-zero
    * deltas are accumulated by ∫. It stops at a zero delta once `minIter`
    * iterations have run: a nested body may emit changes after a zero delta
    * while its outer state is non-zero, which it is only up to the earlier
    * ticks' last iteration. `maxIter` iterations without that stop throw.
    */
  private[repro] def loop(
      body: Op[Map[String, ZSet], ZSet],
      inputs: Map[String, ZSet],
      recEmpty: ZSet,
      minIter: Int,
      maxIter: Int = DefaultMaxIter): (ZSet, FixpointStats) = {
    val empties = inputs.map { case (n, z) => n -> ZSet.empty(z.spark, z.dataSchema) }
    val work = mutable.Buffer.empty[Long]
    var acc = recEmpty            // ∫ of the output deltas
    var delta = recEmpty          // z⁻¹ feedback: previous output delta
    var iter = 0
    var done = false
    while (!done) {
      require(iter < maxIter, s"fixpoint: no convergence after $maxIter iterations")
      val dIn = if (iter == 0) inputs else empties // δ₀ of each input
      delta = body.step(dIn + ("R" -> delta)).compact()
      val size = delta.entryCount
      work += size
      if (size != 0) acc = acc.plus(delta).compact()
      iter += 1
      done = iter >= minIter && size == 0
    }
    (acc, FixpointStats(iter, work.toSeq))
  }
}
