package repro.core

import org.apache.spark.sql.functions._

import repro.circuit.{Op, Op2}
import repro.zset.ZSet

/** Lifted (per-tick) Z-set operators — the `↑f` boxes of the paper's circuits.
  * Linear operators are their own incremental versions (Theorem 3.3), so the
  * same instances appear unchanged in incremental circuits.
  */
object ZSetOps {

  /** I (Definition 2.19) over a Z-set stream of its first value's schema. */
  def integrate: Op[ZSet, ZSet] = Op.fromFirst(z => Op.integrate(ZSet.groupOf(z)))

  /** D (Definition 2.17) over a Z-set stream of its first value's schema. */
  def differentiate: Op[ZSet, ZSet] = Op.fromFirst(z => Op.differentiate(ZSet.groupOf(z)))

  /** ↑σ — selection by a SQL predicate over the data columns. Linear. */
  def filter(predicate: String): Op[ZSet, ZSet] =
    Op.lift(z => z.filterZ(expr(predicate)))

  /** ↑map — generalized projection via "expr AS alias" SQL expressions. Linear. */
  def map(exprs: String*): Op[ZSet, ZSet] =
    Op.lift(z => z.mapRows(exprs: _*))

  /** ↑distinct — Definition 4.3. NOT linear; see [[IncrementalDistinct]]. */
  def distinct: Op[ZSet, ZSet] = Op.lift(_.distinctZ)

  /** ↑⋈ — equi-join; bilinear (weights multiply). See [[IncrementalJoin]]. */
  def join(keys: Seq[String]): Op2[ZSet, ZSet, ZSet] =
    Op.lift2((a, b) => a.join(b, keys))

  /** ↑× — Cartesian product; bilinear. */
  def cartesian: Op2[ZSet, ZSet, ZSet] = Op.lift2((a, b) => a.cartesian(b))
}
