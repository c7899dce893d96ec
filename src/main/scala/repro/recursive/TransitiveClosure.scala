package repro.recursive

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.types._

import repro.relational.ZExpr
import repro.relational.ZExpr._
import repro.zset.ZSet

/** The transitive-closure Datalog program of §6.1:
  * {{{
  *   R(x, x) :- E(x, _).       R(x, x) :- E(_, x).
  *   R(x, y) :- E(x, y).       R(x, y) :- E(x, z), R(z, y).
  * }}}
  * Input relation `E(h, t)`, output relation `R(s, u)`.
  */
object TransitiveClosure {

  val eSchema: StructType = StructType(Seq(
    StructField("h", LongType, nullable = false),
    StructField("t", LongType, nullable = false)))

  val rSchema: StructType = StructType(Seq(
    StructField("s", LongType, nullable = false),
    StructField("u", LongType, nullable = false)))

  def emptyE(spark: SparkSession): ZSet = ZSet.empty(spark, eSchema)
  def emptyR(spark: SparkSession): ZSet = ZSet.empty(spark, rSchema)

  /** The non-recursive body R(E, R₁): the four rules as a Z-set circuit over
    * inputs "E" and "R" (not distinct-wrapped — the fixpoint drivers add it).
    */
  val body: ZExpr = {
    val e = ZInput("E")
    val base1 = ZMap(e, Seq("h AS s", "h AS u"))
    val base2 = ZMap(e, Seq("t AS s", "t AS u"))
    val base3 = ZMap(e, Seq("h AS s", "t AS u"))
    // E(x, z), R(z, y): rename E to (h, s), join on s with R(s, u), project.
    val step = ZMap(ZJoin(ZMap(e, Seq("h", "t AS s")), ZInput("R"), Seq("s")),
                    Seq("h AS s", "u"))
    ZSum(ZSum(base1, base2), ZSum(base3, step))
  }

  def naive(e: ZSet): (ZSet, FixpointStats) = Fixpoint.naive(body, Map("E" -> e), emptyR(e.spark))

  def semiNaive(e: ZSet): (ZSet, FixpointStats) = Fixpoint.semiNaive(body, Map("E" -> e), emptyR(e.spark))

  /** DuckDB oracle query over an input table `e(h, t)` — the same program as
    * a recursive CTE, used by tests to validate Theorem 5.4.
    */
  val oracleSql: String =
    """WITH RECURSIVE r(s, u) AS (
      |  SELECT h, h FROM e UNION SELECT t, t FROM e UNION SELECT h, t FROM e
      |  UNION
      |  SELECT e.h, r.u FROM e JOIN r ON e.t = r.s
      |)
      |SELECT s, u FROM r""".stripMargin
}
