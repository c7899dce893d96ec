package repro.relational

import scala.util.Random

import repro.harness.experiments.E1RelationalIvm
import repro.zset.ZSet
import repro.{SparkSpec, ZSetFixtures}

import ZExpr._

/** σ and π pushed below ⋈ and × ([[Pushdown]]): each rewrite fires where it
  * is sound and nowhere else, and rewritten circuits equal the originals on
  * random Z-sets, negative weights included.
  */
class PushdownSpec extends SparkSpec with ZSetFixtures {

  // Operands with known columns: a(x, u), b(x, v); inputs have none.
  private val a = ZMap(ZInput("a"), Seq("x", "u"))
  private val b = ZMap(ZInput("b"), Seq("x", "v"))
  private def ab = ZJoin(a, b, Seq("x"))

  test("σ on the left operand's columns, the join key included, moves into the left operand") {
    for (p <- Seq("u > 0", "x > 0", "x + u > 1", "U > 0"))
      assert(Pushdown.optimize(ZFilter(ab, p)) == ZJoin(ZFilter(a, p), b, Seq("x")), p)
  }

  test("σ on the right operand's other columns moves into the right operand") {
    assert(Pushdown.optimize(ZFilter(ab, "v % 2 = 0")) == ZJoin(a, ZFilter(b, "v % 2 = 0"), Seq("x")))
    // The key's output value is the left operand's: with an unknown left
    // operand a predicate on it stays.
    val unknownLeft = ZJoin(ZInput("a"), b, Seq("x"))
    assert(Pushdown.optimize(ZFilter(unknownLeft, "v > 0")) == ZJoin(ZInput("a"), ZFilter(b, "v > 0"), Seq("x")))
    assert(Pushdown.optimize(ZFilter(unknownLeft, "x > 0 AND v > 0")) == ZFilter(unknownLeft, "x > 0 AND v > 0"))
  }

  test("nothing moves that reads both operands, unknown columns, or names the parser cannot pin down") {
    val stays = Seq(
      ZFilter(ab, "u + v > 2"),
      ZFilter(ZJoin(ZInput("a"), ZInput("b"), Seq("x")), "u > 0"),
      ZFilter(ab, "exists(array(u), e -> e > v)"),
      ZFilter(ab, "u IN (SELECT 1)"),
      ZFilter(ab, "u >"),
      ZFilter(ZJoin(a, b, Nil), "u > 0"),
      ZMap(ab, Seq("*")),
      ZMap(ZJoin(ZInput("a"), ZInput("b"), Seq("x")), Seq("u")),
      // Every column read: nothing to drop.
      ZMap(ab, Seq("x", "u + v AS s")),
      // Columns that clash case-insensitively are not known.
      ZMap(ZJoin(ZMap(ZInput("a"), Seq("x", "u", "y AS U")), b, Seq("x")), Seq("v")))
    for (e <- stays) assert(Pushdown.optimize(e) == e, e)
  }

  test("a map above a join keeps of each operand only the columns it or the keys read") {
    val m = ZMap(ab, Seq("u + 1 AS s"))
    assert(Pushdown.optimize(m) == ZMap(ZJoin(a, ZMap(b, Seq("`x`")), Seq("x")), Seq("u + 1 AS s")))
    val c = ZMap(ZInput("c"), Seq("y", "w"))
    val crossed = ZMap(ZCross(a, c), Seq("x", "w"))
    assert(Pushdown.optimize(crossed) == ZMap(ZCross(ZMap(a, Seq("`x`")), ZMap(c, Seq("`w`"))), Seq("x", "w")))
  }

  test("E1's circuit filters and narrows the orders operand below the join") {
    val orders = ZMap(ZInput("orders"), Seq("o_orderkey", "o_custkey AS c_custkey", "o_totalprice"))
    val narrowed = ZMap(ZFilter(orders, "o_totalprice > 100000"), Seq("`o_orderkey`", "`c_custkey`"))
    assert(Pushdown.columns(narrowed).contains(Seq("o_orderkey", "c_custkey")))
    assert(Incrementalizer.circuitOf(E1RelationalIvm.query) == ZDistinct(ZMap(
      ZJoin(narrowed, ZInput("customer"), Seq("c_custkey")), Seq("o_orderkey", "c_mktsegment"))))
  }

  test("rewritten circuits equal the originals on random Z-sets with negative weights") {
    val rnd = new Random(61)
    val c = ZMap(ZInput("c"), Seq("x", "w"))
    val cross = ZCross(ZMap(ZInput("a"), Seq("x AS x1", "u")), ZMap(ZInput("b"), Seq("x AS x2", "v")))
    val circuits = Seq(
      ZFilter(ab, "u > 0"),
      ZFilter(ab, "v % 2 = 0"),
      ZFilter(ab, "u + v > 2"),
      ZFilter(ab, "x >= 1"),
      ZMap(ab, Seq("u + 1 AS s")),
      ZMap(ZFilter(ab, "u > 0"), Seq("x * 10 + v AS s", "u")),
      ZDistinct(ZMap(ZFilter(ab, "v < 2"), Seq("u"))),
      ZMap(ZFilter(ZJoin(ab, c, Seq("x")), "w > 0"), Seq("v", "w")),
      ZSum(ZFilter(ab, "u > 0"), ZNeg(ZFilter(ZJoin(ZNeg(a), b, Seq("x")), "v > 0"))),
      ZMap(ZFilter(cross, "u > 0"), Seq("x1")),
      ZMap(ZFilter(cross, "x2 > 0"), Seq("x1", "u")))
    def rand(v: String): ZSet = zs2("x", v, Seq.fill(6)(
      (rnd.nextInt(3).toLong, rnd.nextInt(3).toLong) -> (rnd.nextInt(5) - 2L)): _*)
    assert(circuits.count(e => Pushdown.optimize(e) != e) == circuits.size - 1)
    for (trial <- 0 until 3; e <- circuits) {
      val inputs = Map("a" -> rand("u"), "b" -> rand("v"), "c" -> rand("w"))
      val pushed = Pushdown.optimize(e)
      assert(BatchEval.eval(e, inputs).zequals(BatchEval.eval(pushed, inputs)), s"trial $trial: $e → $pushed")
    }
  }
}
