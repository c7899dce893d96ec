package repro.nested

import scala.collection.mutable

import repro.algebra.Group
import repro.circuit.Op

/** An operator over nested streams S_{S_A} (§6, §A.1).
  *
  * Execution model: the driver advances outer time t₁ by calling
  * `newOuterTick()`, then feeds the inner stream one value per `step` call
  * (inner time t₂ = 0, 1, …). A nested stream is thus evaluated row by row
  * in the matrix picture of §A.1.
  */
trait NestedOp[A] {
  /** Advance outer time; inner time restarts at 0. */
  def newOuterTick(): Unit
  def step(a: A): A

  /** Evaluate on a matrix prefix (list of rows), resetting nothing —
    * convenience for tests. Rows may differ in length; the cells past a
    * row's end are not computed (see `NestedOp.outer`).
    */
  final def run(rows: Seq[Seq[A]]): Seq[Seq[A]] =
    rows.map { row => newOuterTick(); row.map(step) }
}

/** The two ways to run a stream operator on nested streams: along the rows
  * (inner time) or along the columns (outer time). With `Op.delay`,
  * `Op.integrate` and `Op.differentiate` they give ↑z⁻¹, ↑I, ↑D and z⁻¹, I, D
  * of §A.1; with `Op.lift(f)` either one is ↑↑f.
  */
object NestedOp {

  /** ↑op, the paper's lifting: a fresh `mk` on every outer tick, run over
    * that tick's inner stream.
    */
  def inner[A](mk: => Op[A, A]): NestedOp[A] = new NestedOp[A] {
    private var op = mk
    def newOuterTick(): Unit = op = mk
    def step(a: A): A = op.step(a)
  }

  /** `mk` in outer time: one instance per inner index t₂, stepped once per
    * outer tick.
    *
    * Ragged rows: a row may stop before an index that earlier rows reached.
    * On the next outer tick every index the previous row never reached is
    * stepped with `g.zero` and its output dropped, so each instance sees its
    * column padded with zeros. That is the run on the zero-padded matrix when
    * the padded cells of `mk`'s input are zero, as they are for the input of
    * a nested operator; an input computed by a non-linear inner operator may
    * be non-zero there, and then it is not.
    */
  def outer[A](mk: => Op[A, A])(implicit g: Group[A]): NestedOp[A] = new NestedOp[A] {
    private val ops = mutable.ArrayBuffer.empty[Op[A, A]]
    private var t2 = 0
    def newOuterTick(): Unit = { ops.drop(t2).foreach(_.step(g.zero)); t2 = 0 }
    def step(a: A): A = {
      if (t2 == ops.size) ops += mk
      val out = ops(t2).step(a)
      t2 += 1
      out
    }
  }
}
