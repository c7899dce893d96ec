package repro.relational

import scala.collection.mutable

import org.apache.spark.sql.functions.expr

import repro.circuit.Op
import repro.core.{IncrementalBilinear, IncrementalDistinct, ZSetOps}
import repro.zset.ZSet

import ZExpr._

/** One memoized walk over a Z-set circuit. The linear nodes (σ, map, −, +)
  * have one meaning at every level of incrementalization (Theorem 3.3); the
  * bilinear ones (⋈ and ×, given as their product `times` on `keys`, none
  * for ×) and distinct get theirs from the implementing semantics, given the
  * node and its evaluated operands. A stateful semantics keys its operator
  * instances by node, so structurally identical subtrees share one operator
  * (and its state), mirroring common-subexpression sharing in the circuit
  * diagram.
  */
trait CircuitInterpreter {
  protected def bilinear(node: ZExpr, a: ZSet, b: ZSet, keys: Seq[String])(times: (ZSet, ZSet) => ZSet): ZSet
  protected def distinct(node: ZDistinct, in: ZSet): ZSet

  protected final def walk(e: ZExpr, inputs: Map[String, ZSet]): ZSet = {
    val memo = mutable.Map.empty[ZExpr, ZSet]
    def go(e: ZExpr): ZSet = memo.getOrElseUpdate(e, e match {
      case ZInput(n)          => inputs.getOrElse(n, sys.error(s"missing input $n"))
      case ZFilter(in, p)     => go(in).filterZ(expr(p))
      case ZMap(in, es)       => go(in).mapRows(es: _*)
      case ZNeg(in)           => go(in).negate
      case ZSum(a, b)         => go(a).plus(go(b))
      case ZJoin(a, b, k)     =>
        val (x, y) = (go(a), go(b))
        val keys = joinKeys(x, y, k)
        bilinear(e, x, y, keys)(_.join(_, keys))
      case ZCross(a, b)       => bilinear(e, go(a), go(b), Nil)(_.cartesian(_))
      case d @ ZDistinct(in)  => distinct(d, go(in))
    })
    go(e)
  }

  /** Resolve intersect's "join on all columns" encoding (empty key list). */
  private def joinKeys(a: ZSet, b: ZSet, keys: Seq[String]): Seq[String] =
    if (keys.nonEmpty) keys
    else {
      val shared = a.dataCols.filter(b.dataCols.contains)
      require(shared.nonEmpty, "join-on-all with no shared columns")
      shared
    }
}

/** Non-incremental ("scalar") evaluation of a Z-set circuit on one database
  * snapshot — the circuits of Table 1 before lifting.
  */
object BatchEval extends CircuitInterpreter {
  protected def bilinear(node: ZExpr, a: ZSet, b: ZSet, keys: Seq[String])(times: (ZSet, ZSet) => ZSet): ZSet =
    times(a, b)
  protected def distinct(node: ZDistinct, in: ZSet): ZSet = in.distinctZ

  def eval(e: ZExpr, inputs: Map[String, ZSet]): ZSet = walk(e, inputs)
}

/** Algorithm 4.8 steps 3–5: the lifted, incrementalized circuit, with the
  * chain rule applied so every node computes directly on changes —
  *
  *  - linear nodes (σ, π/map, +, −) run unchanged (Theorem 3.3),
  *  - ⋈/× become an [[IncrementalBilinear]] of their product (Theorem 3.4),
  *  - distinct becomes [[IncrementalDistinct]] (Proposition 4.7).
  *
  * Each `step` takes one tick's input changes and returns the view change.
  */
final class IncrementalRunner(circuit: ZExpr)
    extends Op[Map[String, ZSet], ZSet] with CircuitInterpreter {
  private val bilinears = mutable.Map.empty[ZExpr, IncrementalBilinear]
  private val distincts = mutable.Map.empty[ZExpr, IncrementalDistinct]

  protected def bilinear(node: ZExpr, a: ZSet, b: ZSet, keys: Seq[String])(times: (ZSet, ZSet) => ZSet): ZSet =
    bilinears.getOrElseUpdate(node, new IncrementalBilinear(keys, times)).step(a, b)
  protected def distinct(node: ZDistinct, in: ZSet): ZSet =
    distincts.getOrElseUpdate(node, new IncrementalDistinct).step(in)

  def step(inputs: Map[String, ZSet]): ZSet = walk(circuit, inputs)
}

/** Algorithm 4.8 stopped after step 4: the lifted circuit surrounded by I
  * and D but *not* rewritten internally — it reconstitutes full snapshots
  * and re-evaluates the whole query every tick. This is the paper's O(R[t])
  * baseline against which incremental circuits are measured (§4.5). Like
  * [[IncrementalRunner]], each `step` maps input changes to the view change.
  */
final class NaiveLiftedRunner(circuit: ZExpr) extends Op[Map[String, ZSet], ZSet] {
  private val integrals = mutable.Map.empty[String, Op[ZSet, ZSet]]
  private val differentiate = ZSetOps.differentiate

  def step(inputs: Map[String, ZSet]): ZSet = {
    val snap = inputs.map { case (n, d) => n -> integrals.getOrElseUpdate(n, ZSetOps.integrate).step(d) }
    differentiate.step(BatchEval.eval(circuit, snap))
  }
}

/** Algorithm 4.8, end to end: translate (Table 1) → consolidate distincts
  * (Props 4.5/4.6) → lift + incrementalize + chain rule.
  */
object Incrementalizer {
  def circuitOf(q: Rel): ZExpr = DistinctOptimizer.optimize(Table1.translate(q))

  /** The maintained incremental circuit for a relational (set) query. */
  def incremental(q: Rel): IncrementalRunner = new IncrementalRunner(circuitOf(q))

  /** The unoptimized lifted baseline for the same query. */
  def naive(q: Rel): NaiveLiftedRunner = new NaiveLiftedRunner(circuitOf(q))

  /** Batch (one-snapshot) evaluation of the same circuit. */
  def batch(q: Rel, inputs: Map[String, ZSet]): ZSet =
    BatchEval.eval(circuitOf(q), inputs)
}
