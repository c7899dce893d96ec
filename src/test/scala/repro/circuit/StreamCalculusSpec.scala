package repro.circuit

import org.scalatest.funsuite.AnyFunSuite

/** §2 of the paper: streams, lifting, delay, integration, differentiation —
  * checked on concrete ℤ-streams (no Spark needed; streams over any abelian
  * group obey the same laws).
  */
class StreamCalculusSpec extends AnyFunSuite {

  private val id: Seq[Long] = (0L until 12L).toSeq

  private def runFresh[A, B](mk: => Op[A, B], in: Seq[A]): Seq[B] = mk.run(in)

  // ------------------------------------------------------------ §2 examples

  test("lifting applies pointwise: (↑(2x))(id) = [0 2 4 6 ...]") {
    assert(runFresh(Op.lift[Long, Long](_ * 2), id) == id.map(_ * 2))
  }

  test("Prop 2.4: lifting distributes over composition") {
    val f = (x: Long) => x * 3
    val g = (x: Long) => x + 1
    val lhs = runFresh(Op.lift(g).andThen(Op.lift(f)), id)
    val rhs = runFresh(Op.lift(f.compose(g)), id)
    assert(lhs == rhs)
  }

  test("delay example: z⁻¹(id) = [0 0 1 2 3 ...]") {
    assert(runFresh(Op.delay[Long], id) == 0L +: id.init)
  }

  test("differentiation example: D(id) = [0 1 1 1 ...]") {
    assert(runFresh(Op.differentiate[Long], id) == 0L +: Seq.fill(id.size - 1)(1L))
  }

  test("integration example: I(id) = [0 1 3 6 10 ...]") {
    assert(runFresh(Op.integrate[Long], id) == id.scanLeft(0L)(_ + _).tail)
  }

  // ------------------------------------------------ structural properties

  test("z⁻¹ is strict: output at t is independent of input at t") {
    val s1 = Seq(5L, 7L, 9L)
    val s2 = Seq(5L, 7L, 1000L)
    val o1 = runFresh(Op.delay[Long], s1)
    val o2 = runFresh(Op.delay[Long], s2)
    assert(o1(2) == o2(2)) // differs only at t=2; strictness ⇒ same output at t=2
  }

  test("lifted operators are causal but not strict") {
    val f = Op.lift[Long, Long](_ + 1)
    assert(f.step(0L) == 1L) // output at t=0 depends on input at t=0
  }

  test("delay is time-invariant: z∘z = z∘z (commutes with itself trivially), and S∘z = z∘S for lifted S") {
    val s = Seq(3L, 1L, 4L, 1L, 5L)
    val lhs = runFresh(Op.lift[Long, Long](_ * 7).andThen(Op.delay[Long]), s)
    val rhs = runFresh(Op.delay[Long].andThen(Op.lift[Long, Long](_ * 7)), s)
    assert(lhs == rhs) // requires zpp: 0*7 = 0
  }

  test("lifted non-zpp function is NOT time-invariant") {
    val s = Seq(3L, 1L, 4L)
    val f = Op.lift[Long, Long](_ + 1) // f(0) = 1 ≠ 0
    val lhs = runFresh(f.andThen(Op.delay[Long]), s)
    val rhs = runFresh(Op.delay[Long].andThen(f), s)
    assert(lhs != rhs)
  }

  test("Thm 2.22 (inversion): D(I(s)) = s") {
    val s = Seq(3L, -1L, 4L, 0L, -5L, 9L)
    assert(runFresh(Op.integrate[Long].andThen(Op.differentiate[Long]), s) == s)
  }

  test("Thm 2.22 (inversion): I(D(s)) = s") {
    val s = Seq(3L, -1L, 4L, 0L, -5L, 9L)
    assert(runFresh(Op.differentiate[Long].andThen(Op.integrate[Long]), s) == s)
  }

  test("I is LTI: I(a + b) = I(a) + I(b)") {
    val a = Seq(1L, 2L, 3L, 4L)
    val b = Seq(5L, -2L, 0L, 7L)
    val sum = a.zip(b).map { case (x, y) => x + y }
    val lhs = runFresh(Op.integrate[Long], sum)
    val rhs = runFresh(Op.integrate[Long], a).zip(runFresh(Op.integrate[Long], b)).map { case (x, y) => x + y }
    assert(lhs == rhs)
  }

  test("D is LTI: D(a + b) = D(a) + D(b)") {
    val a = Seq(1L, 2L, 3L, 4L)
    val b = Seq(5L, -2L, 0L, 7L)
    val sum = a.zip(b).map { case (x, y) => x + y }
    val lhs = runFresh(Op.differentiate[Long], sum)
    val rhs = runFresh(Op.differentiate[Long], a).zip(runFresh(Op.differentiate[Long], b)).map { case (x, y) => x + y }
    assert(lhs == rhs)
  }

  test("Prop 2.16 / Def 2.19: I as the feedback loop fix α.(s + z⁻¹(α))") {
    val s = Seq(2L, 4L, 8L, 16L)
    val viaFeedback = runFresh(
      Op.feedback[Long, Long](Op.lift2[Long, Long, Long](_ + _)), s)
    assert(viaFeedback == runFresh(Op.integrate[Long], s))
  }

  test("Prop 2.10: feedback through strict z⁻¹ has a unique well-defined solution") {
    // α = 2·z⁻¹(α) + s: deterministic unrolling.
    val s = Seq(1L, 0L, 0L, 0L)
    val out = runFresh(
      Op.feedback[Long, Long](Op.lift2[Long, Long, Long]((x, fb) => x + 2 * fb)), s)
    assert(out == Seq(1L, 2L, 4L, 8L))
  }

  // ------------------------------------------- streams over Z-set-like maps

  test("map-group streams: I/D inversion on finite-support maps") {
    type M = Map[String, Long]
    val s: Seq[M] = Seq(
      Map("a" -> 1L), Map("a" -> -1L, "b" -> 2L), Map.empty[String, Long], Map("b" -> -2L))
    assert(Op.integrate[M].andThen(Op.differentiate[M]).run(s) == s)
    assert(Op.differentiate[M].andThen(Op.integrate[M]).run(s) == s)
  }

  test("map-group streams: integration accumulates and cancels") {
    type M = Map[String, Long]
    val s: Seq[M] = Seq(Map("a" -> 1L), Map("a" -> -1L))
    val out = Op.integrate[M].run(s)
    assert(out == Seq(Map("a" -> 1L), Map.empty[String, Long]))
  }
}
