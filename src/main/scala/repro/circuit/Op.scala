package repro.circuit

import repro.algebra.Group

/** A synchronous, causal stream operator (§2.1–2.2): consumes one input value
  * per clock tick and produces one output value per tick. State (if any) lives
  * inside the instance, so a *fresh instance* denotes the operator applied
  * from time 0; `Op`s are single-use per run.
  *
  * Streams themselves never materialize as infinite objects — the driver
  * feeds finite prefixes tick by tick, exactly as DBSP's runtime does.
  */
trait Op[A, B] { self =>
  def step(a: A): B

  /** Operator composition (chained circuits). */
  def andThen[C](next: Op[B, C]): Op[A, C] = new Op[A, C] {
    def step(a: A): C = next.step(self.step(a))
  }

  /** Run on a finite stream prefix. */
  def run(input: Seq[A]): Seq[B] = input.map(step)
}

/** A two-input synchronous stream operator. */
trait Op2[A, B, C] { self =>
  def step(a: A, b: B): C

  def andThen[D](next: Op[C, D]): Op2[A, B, D] = new Op2[A, B, D] {
    def step(a: A, b: B): D = next.step(self.step(a, b))
  }

  def run(as: Seq[A], bs: Seq[B]): Seq[C] = {
    require(as.length == bs.length, "Op2.run: unequal stream prefixes")
    as.zip(bs).map { case (a, b) => step(a, b) }
  }
}

object Op {

  /** Lift a scalar function pointwise in time (Definition 2.3). */
  def lift[A, B](f: A => B): Op[A, B] = new Op[A, B] { def step(a: A): B = f(a) }

  /** Lift a binary scalar function. */
  def lift2[A, B, C](f: (A, B) => C): Op2[A, B, C] = new Op2[A, B, C] {
    def step(a: A, b: B): C = f(a, b)
  }

  /** The delay operator z⁻¹ (Definition 2.5): outputs 0 at t=0, then the
    * previous input. Strict, causal, LTI.
    */
  def delay[A](implicit g: Group[A]): Op[A, A] = new Op[A, A] {
    private var prev: A = g.zero
    def step(a: A): A = { val out = prev; prev = g.compact(a); out }
  }

  /** Integration I (Definition 2.19): running sum of the input. */
  def integrate[A](implicit g: Group[A]): Op[A, A] = new Op[A, A] {
    private var acc: A = g.zero
    def step(a: A): A = { acc = g.compact(g.plus(acc, a)); acc }
  }

  /** Differentiation D (Definition 2.17): current minus previous input. */
  def differentiate[A](implicit g: Group[A]): Op[A, A] = new Op[A, A] {
    private var prev: A = g.zero
    def step(a: A): A = { val out = g.minus(a, prev); prev = g.compact(a); out }
  }

  /** `make(first input)` run from the first tick on — for operators whose
    * group is known only from the values (a Z-set's schema).
    */
  def fromFirst[A, B](make: A => Op[A, B]): Op[A, B] = new Op[A, B] {
    private var op: Op[A, B] = _
    def step(a: A): B = { if (op == null) op = make(a); op.step(a) }
  }

  /** Pointwise stream negation. */
  def neg[A](implicit g: Group[A]): Op[A, A] = lift(g.negate)

  /** Feedback loop `fix α. T(s, z⁻¹(α))` (Corollary 2.12 / Prop 2.16):
    * well-defined because the back-edge goes through the strict z⁻¹.
    */
  def feedback[A, B](t: Op2[A, B, B])(implicit g: Group[B]): Op[A, B] = new Op[A, B] {
    private var prev: B = g.zero
    def step(a: A): B = { val out = t.step(a, prev); prev = g.compact(out); out }
  }

  /** The incremental version Q^Δ = D ∘ Q ∘ I (Definition 3.1) — the generic,
    * brute-force form. Efficient specializations (linear ops, Thm 3.4 join,
    * Prop 4.7 distinct) live in `repro.core`.
    */
  def incremental[A, B](q: Op[A, B])(implicit ga: Group[A], gb: Group[B]): Op[A, B] =
    integrate[A].andThen(q).andThen(differentiate[B])

  /** Incremental version of a binary operator: each input integrated
    * independently, output differentiated (Definition 3.1).
    */
  def incremental2[A, B, C](q: Op2[A, B, C])(
      implicit ga: Group[A], gb: Group[B], gc: Group[C]): Op2[A, B, C] =
    new Op2[A, B, C] {
      private val ia = integrate[A]
      private val ib = integrate[B]
      private val d  = differentiate[C]
      def step(a: A, b: B): C = d.step(q.step(ia.step(a), ib.step(b)))
    }

  /** The inverse of incrementalization (Prop 3.2 "inversion"): I ∘ Q ∘ D. */
  def unIncremental[A, B](q: Op[A, B])(implicit ga: Group[A], gb: Group[B]): Op[A, B] =
    differentiate[A].andThen(q).andThen(integrate[B])
}
