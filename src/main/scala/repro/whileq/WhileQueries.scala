package repro.whileq

import repro.circuit.Op
import repro.core.ZSetOps
import repro.recursive.Fixpoint
import repro.zset.ZSet

/** Relational while-queries (§7.7):
  * {{{
  *   x := i; while (x changes) x := Q(x);
  * }}}
  * More expressive than stratified Datalog — Q is an arbitrary relational
  * query (it need not be monotone). Termination is not guaranteed; when the
  * loop does terminate it returns the reached fixpoint.
  */
object WhileQueries {

  /** Batch evaluation of the while loop: [[Fixpoint.iterate]] from `i`. */
  def whileFix(i: ZSet, q: ZSet => ZSet): ZSet = Fixpoint.iterate(i, q)._1

  /** The lifted, incrementalized while-query (Algorithm 4.8 applied to the
    * whole loop, step 4 — the generic D ∘ ↑whileFix ∘ I form). Because Q is
    * arbitrary (possibly non-monotone), the semi-naïve specialization does
    * not apply; this is the paper's always-correct fallback: consume changes
    * of i, produce changes of the fixpoint.
    */
  final class IncrementalWhile(q: ZSet => ZSet) extends Op[ZSet, ZSet] {
    private val circuit =
      ZSetOps.integrate.andThen(Op.lift(whileFix(_: ZSet, q))).andThen(ZSetOps.differentiate)

    def step(di: ZSet): ZSet = circuit.step(di)
  }
}
