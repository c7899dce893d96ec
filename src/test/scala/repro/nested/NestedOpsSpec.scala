package repro.nested

import org.scalatest.funsuite.AnyFunSuite

import repro.circuit.Op
import repro.nested.NestedOp.{inner, outer}

/** Reproduces every nested-stream computation of Appendix A.1 on the matrix
  * i[outer][inner] = inner + 2·outer, plus the commutativity properties the
  * appendix states. Convention: outer time indexes rows, inner time indexes
  * columns (each row is one inner stream), matching the displayed matrices.
  */
class NestedOpsSpec extends AnyFunSuite {

  private val rows = 4
  private val cols = 4
  private val i: Seq[Seq[Long]] =
    (0 until rows).map(r => (0 until cols).map(c => (c + 2L * r)))

  private def m(xs: (Long, Long, Long, Long)*): Seq[Seq[Long]] =
    xs.map { case (a, b, c, d) => Seq(a, b, c, d) }

  test("A.1: ↑↑(x mod 2) computes pointwise on the matrix") {
    val out = inner(Op.lift[Long, Long](x => ((x % 2) + 2) % 2)).run(i)
    assert(out == m((0, 1, 0, 1), (0, 1, 0, 1), (0, 1, 0, 1), (0, 1, 0, 1)))
  }

  test("A.1: I on nested streams integrates rows") {
    val out = outer(Op.integrate[Long]).run(i)
    assert(out == m((0, 1, 2, 3), (2, 4, 6, 8), (6, 9, 12, 15), (12, 16, 20, 24)))
  }

  test("A.1: ↑I integrates columns: (↑I)(i)") {
    val out = inner(Op.integrate[Long]).run(i)
    assert(out == m((0, 1, 3, 6), (2, 5, 9, 14), (4, 9, 15, 22), (6, 13, 21, 30)))
  }

  test("A.1: D on nested streams differentiates rows") {
    val out = outer(Op.differentiate[Long]).run(i)
    assert(out == m((0, 1, 2, 3), (2, 2, 2, 2), (2, 2, 2, 2), (2, 2, 2, 2)))
  }

  test("A.1: ↑D differentiates columns: (↑D)(i)") {
    val out = inner(Op.differentiate[Long]).run(i)
    assert(out == m((0, 1, 1, 1), (2, 1, 1, 1), (4, 1, 1, 1), (6, 1, 1, 1)))
  }

  test("A.1: z⁻¹ delays rows") {
    val out = outer(Op.delay[Long]).run(i)
    assert(out == m((0, 0, 0, 0), (0, 1, 2, 3), (2, 3, 4, 5), (4, 5, 6, 7)))
  }

  test("A.1: (↑z⁻¹)(z⁻¹(i)) = z⁻¹((↑z⁻¹)(i)) — delays both rows and columns") {
    val a = {
      val rowsDelayed = outer(Op.delay[Long]).run(i)
      inner(Op.delay[Long]).run(rowsDelayed)
    }
    val b = {
      val colsDelayed = inner(Op.delay[Long]).run(i)
      outer(Op.delay[Long]).run(colsDelayed)
    }
    val expected = m((0, 0, 0, 0), (0, 0, 1, 2), (0, 2, 3, 4), (0, 4, 5, 6))
    assert(a == expected)
    assert(b == expected)
  }

  test("A.1: D_{S_N}(i) = (D ∘ ↑D)(i)") {
    val out = outer(Op.differentiate[Long]).run(inner(Op.differentiate[Long]).run(i))
    assert(out == m((0, 1, 1, 1), (2, 0, 0, 0), (2, 0, 0, 0), (2, 0, 0, 0)))
  }

  test("A.1: I_{S_N}(i) = (↑I ∘ I)(i)") {
    val out = inner(Op.integrate[Long]).run(outer(Op.integrate[Long]).run(i))
    assert(out == m((0, 1, 3, 6), (2, 6, 12, 20), (6, 15, 27, 42), (12, 28, 48, 72)))
  }

  test("A.1: I ∘ ↑I = ↑I ∘ I and D ∘ ↑D = ↑D ∘ D") {
    val a1 = outer(Op.integrate[Long]).run(inner(Op.integrate[Long]).run(i))
    val a2 = inner(Op.integrate[Long]).run(outer(Op.integrate[Long]).run(i))
    assert(a1 == a2)
    val b1 = outer(Op.differentiate[Long]).run(inner(Op.differentiate[Long]).run(i))
    val b2 = inner(Op.differentiate[Long]).run(outer(Op.differentiate[Long]).run(i))
    assert(b1 == b2)
  }

  test("nested inversion: D ∘ ↑D ∘ ↑I ∘ I = id") {
    val out = outer(Op.differentiate[Long]).run(
      inner(Op.differentiate[Long]).run(
        inner(Op.integrate[Long]).run(
          outer(Op.integrate[Long]).run(i))))
    assert(out == i)
  }

  test("Prop 6.1: ↑z⁻¹ is strict in nested time (column 0 is always zero)") {
    val out = inner(Op.delay[Long]).run(i)
    assert(out.forall(_.head == 0L))
  }

  test("delayed-integrate variants: Zᵢ = ↑z⁻¹∘↑I and Zₒ = z⁻¹∘I") {
    val zi1 = inner(Op.integrate[Long].andThen(Op.delay[Long])).run(i)
    val zi2 = inner(Op.delay[Long]).run(inner(Op.integrate[Long]).run(i))
    assert(zi1 == zi2)
    val zo1 = outer(Op.integrate[Long].andThen(Op.delay[Long])).run(i)
    val zo2 = outer(Op.delay[Long]).run(outer(Op.integrate[Long]).run(i))
    assert(zo1 == zo2)
  }

  test("ragged rows: outer z⁻¹ and D treat a short row's tail as 0") {
    val ragged = Seq(Seq(1L, 2L, 3L), Seq(4L), Seq(5L, 6L, 7L))
    val padded = Seq(Seq(1L, 2L, 3L), Seq(4L, 0L, 0L), Seq(5L, 6L, 7L))
    def cut(out: Seq[Seq[Long]]) = out.zip(ragged).map { case (o, r) => o.take(r.size) }
    assert(outer(Op.delay[Long]).run(ragged) == cut(outer(Op.delay[Long]).run(padded)))
    assert(outer(Op.differentiate[Long]).run(ragged) == cut(outer(Op.differentiate[Long]).run(padded)))
  }
}
