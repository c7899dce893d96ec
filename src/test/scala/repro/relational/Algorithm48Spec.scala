package repro.relational

import repro.{SparkSpec, SynthData, ZSetFixtures}
import repro.zset.ZSet

/** Algorithm 4.8 end to end on the §4.4 example query and on TPC-H-lite
  * data — translate, consolidate distincts, incrementalize, stream changes.
  */
class Algorithm48Spec extends SparkSpec with ZSetFixtures with RelChecks {

  import Rel._

  // §4.4: SELECT DISTINCT t1.x, t2.y FROM t1, t2
  //       WHERE t1.id = t2.id AND t1.a > 2 AND t2.s > 5
  private val q44: Rel =
    Project(
      Join(
        Project(Select(Table("t1"), "a > 2"), Seq("x", "id")),
        Project(Select(Table("t2"), "s > 5"), Seq("y", "id")),
        Seq("id")),
      Seq("x", "y"))

  private def t1: ZSet = {
    import spark.implicits._
    ZSet.fromSet(
      (1L to 40L).map(i => (i % 7, i % 5, i)).toDF("x", "a", "id"))
  }
  private def t2: ZSet = {
    import spark.implicits._
    ZSet.fromSet(
      (1L to 40L).map(i => (i % 6, i % 9, (i * 3) % 41)).toDF("y", "s", "id"))
  }

  test("§4.4 circuit has a single distinct after consolidation") {
    val c = Incrementalizer.circuitOf(q44)
    assert(c.distinctCount == 1, s"got $c")
  }

  test("§4.4: batch ≡ DuckDB") {
    oracleCheck(q44,
      """SELECT DISTINCT t1.x, t2.y FROM t1 JOIN t2 ON t1.id = t2.id
        |WHERE t1.a > 2 AND t2.s > 5""".stripMargin,
      "t1" -> t1, "t2" -> t2)
  }

  test("§4.4: incremental maintenance over 5 ticks with deletions") {
    incrementalCheck(q44, ticks = 5, deleteFrac = 0.3, "t1" -> t1, "t2" -> t2)
  }

  test("§4.4: the incremental circuit emits deletions when matching rows are removed") {
    val incr = Incrementalizer.incremental(q44)
    val d1t1 = zs2("x", "a", (1L, 5L) -> 1L).mapRows("x", "a", "x + 100 AS id")
    val d1t2 = {
      import spark.implicits._
      ZSet.fromSet(Seq((9L, 9L, 101L)).toDF("y", "s", "id"))
    }
    val out1 = incr.step(Map("t1" -> d1t1, "t2" -> d1t2))
    assert(entriesOf(out1) == Set((Seq("1", "9"), 1L)))
    // Delete the t1 row: the view row must be retracted.
    val out2 = incr.step(Map("t1" -> d1t1.negate, "t2" -> d1t2.filterZ(org.apache.spark.sql.functions.lit(false))))
    assert(entriesOf(out2) == Set((Seq("1", "9"), -1L)))
  }

  test("TPC-H-lite: orders ⋈ customer view, batch ≡ DuckDB (SF 0.002)") {
    val orders = ZSet.fromSet(
      SynthData.orders(spark, sf = 0.002).select("o_orderkey", "o_custkey", "o_totalprice"))
    val customer = ZSet.fromSet(
      SynthData.customer(spark, sf = 0.002).select("c_custkey", "c_mktsegment"))
    val q = Project(
      Select(
        Join(Project(Table("orders"), Seq("o_orderkey", "o_custkey AS c_custkey", "o_totalprice")),
             Table("customer"), Seq("c_custkey")),
        "o_totalprice > 250000"),
      Seq("o_orderkey", "c_mktsegment"))
    oracleCheck(q,
      """SELECT DISTINCT o_orderkey, c_mktsegment
        |FROM orders JOIN customer ON o_custkey = c_custkey
        |WHERE o_totalprice > 250000""".stripMargin,
      "orders" -> orders, "customer" -> customer)
  }

  test("TPC-H-lite: incremental maintenance of the orders ⋈ customer view") {
    val orders = ZSet.fromSet(
      SynthData.orders(spark, sf = 0.001).select("o_orderkey", "o_custkey"))
    val customer = ZSet.fromSet(
      SynthData.customer(spark, sf = 0.001).select("c_custkey", "c_mktsegment"))
    val q = Project(
      Join(Project(Table("orders"), Seq("o_orderkey", "o_custkey AS c_custkey")),
           Table("customer"), Seq("c_custkey")),
      Seq("o_orderkey", "c_mktsegment"))
    incrementalCheck(q, ticks = 3, deleteFrac = 0.2,
      "orders" -> orders, "customer" -> customer)
  }
}
