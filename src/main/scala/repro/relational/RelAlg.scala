package repro.relational

/** Surface relational algebra over *sets* — the left column of Table 1.
  * Inputs are assumed to be sets (all multiplicities 1); each operator
  * produces a set.
  */
sealed trait Rel
object Rel {
  /** A named input relation. */
  final case class Table(name: String) extends Rel
  /** σ_p — WHERE clause, predicate as a Spark SQL expression. */
  final case class Select(in: Rel, predicate: String) extends Rel
  /** π — SELECT DISTINCT of "expr AS alias" projections. */
  final case class Project(in: Rel, exprs: Seq[String]) extends Rel
  /** Set UNION. */
  final case class Union(a: Rel, b: Rel) extends Rel
  /** Bag UNION ALL (§7.1). */
  final case class UnionAll(a: Rel, b: Rel) extends Rel
  /** Set INTERSECT. */
  final case class Intersect(a: Rel, b: Rel) extends Rel
  /** Set EXCEPT (difference — the full relational algebra, not just the
    * positive fragment).
    */
  final case class Except(a: Rel, b: Rel) extends Rel
  /** Cartesian product ×. */
  final case class Cross(a: Rel, b: Rel) extends Rel
  /** Equi-join ⋈ on shared key columns. */
  final case class Join(a: Rel, b: Rel, keys: Seq[String]) extends Rel
  /** Antijoin (§7.5): rows of `a` with no key-match in `b`. */
  final case class AntiJoin(a: Rel, b: Rel, keys: Seq[String]) extends Rel
  /** Explicit DISTINCT. */
  final case class Distinct(in: Rel) extends Rel
}

/** Circuit-level IR over Z-sets — the right column of Table 1. Each node is a
  * Z-set operator; `ZDistinct` is the only non-linear unary node and `ZJoin` /
  * `ZCross` the only bilinear ones, which is what makes the incremental
  * translation (Algorithm 4.8 step 5) mechanical.
  */
sealed trait ZExpr {
  import ZExpr._

  /** The node's operands, left to right. */
  def children: Seq[ZExpr] = this match {
    case ZInput(_)       => Nil
    case ZFilter(in, _)  => Seq(in)
    case ZMap(in, _)     => Seq(in)
    case ZNeg(in)        => Seq(in)
    case ZDistinct(in)   => Seq(in)
    case ZSum(a, b)      => Seq(a, b)
    case ZJoin(a, b, _)  => Seq(a, b)
    case ZCross(a, b)    => Seq(a, b)
  }

  /** The same node over `f` of each operand. */
  def mapChildren(f: ZExpr => ZExpr): ZExpr = this match {
    case ZInput(_)       => this
    case ZFilter(in, p)  => ZFilter(f(in), p)
    case ZMap(in, es)    => ZMap(f(in), es)
    case ZNeg(in)        => ZNeg(f(in))
    case ZDistinct(in)   => ZDistinct(f(in))
    case ZSum(a, b)      => ZSum(f(a), f(b))
    case ZJoin(a, b, k)  => ZJoin(f(a), f(b), k)
    case ZCross(a, b)    => ZCross(f(a), f(b))
  }

  /** All input table names referenced under this node. */
  def inputs: Set[String] = this match {
    case ZInput(n) => Set(n)
    case _         => children.flatMap(_.inputs).toSet
  }

  /** Number of ZDistinct nodes — the optimizer's cost measure. */
  def distinctCount: Int = this match {
    case ZDistinct(in) => 1 + in.distinctCount
    case _             => children.map(_.distinctCount).sum
  }
}
object ZExpr {
  final case class ZInput(name: String) extends ZExpr
  final case class ZFilter(in: ZExpr, predicate: String) extends ZExpr
  final case class ZMap(in: ZExpr, exprs: Seq[String]) extends ZExpr
  final case class ZNeg(in: ZExpr) extends ZExpr
  final case class ZSum(a: ZExpr, b: ZExpr) extends ZExpr
  final case class ZJoin(a: ZExpr, b: ZExpr, keys: Seq[String]) extends ZExpr
  final case class ZCross(a: ZExpr, b: ZExpr) extends ZExpr
  final case class ZDistinct(in: ZExpr) extends ZExpr
}

/** Table 1: translation of relational set operators to Z-set circuits.
  * The translation is by induction on query structure; `distinct` is inserted
  * wherever a Z-set operator may produce non-set multiplicities, relying on
  * the optimizer (Props 4.5/4.6) to consolidate them afterwards.
  */
object Table1 {
  import Rel._
  import ZExpr._

  def translate(q: Rel): ZExpr = q match {
    case Table(n)           => ZInput(n)
    // σ keeps multiplicities 0/1 on set inputs — no distinct needed.
    case Select(in, p)      => ZFilter(translate(in), p)
    // π can merge tuples — distinct restores set semantics.
    case Project(in, es)    => ZDistinct(ZMap(translate(in), es))
    // a ∪ b = distinct(a + b)
    case Union(a, b)        => ZDistinct(ZSum(translate(a), translate(b)))
    // UNION ALL is plain Z-set addition (§7.1).
    case UnionAll(a, b)     => ZSum(translate(a), translate(b))
    // a ∩ b: join on every column; weights multiply (1·1 = 1 on sets).
    case Intersect(a, b)    => ZDistinct(joinOnAll(translate(a), translate(b)))
    // a \ b = distinct(a − b): negative weights "remove" elements.
    case Except(a, b)       => ZDistinct(ZSum(translate(a), ZNeg(translate(b))))
    case Cross(a, b)        => ZCross(translate(a), translate(b))
    case Join(a, b, keys)   => ZJoin(translate(a), translate(b), keys)
    // Antijoin (§7.5): a \ (a ⋉ b), with the semijoin as join + projection.
    case AntiJoin(a, b, keys) =>
      val za = translate(a)
      val zb = translate(b)
      // C = distinct(π_a(a ⋈ π_keys(b))) — matching rows of a.
      val semi = ZDistinct(ZJoin(za, ZDistinct(ZMap(zb, keys)), keys))
      ZDistinct(ZSum(za, ZNeg(semi)))
    case Distinct(in)       => ZDistinct(translate(in))
  }

  /** Intersection is a join on the full column set, which we only know at
    * evaluation time; encode as a ZJoin with an empty key list resolved by
    * the evaluator to "all shared columns".
    */
  private def joinOnAll(a: ZExpr, b: ZExpr): ZExpr = ZJoin(a, b, Nil)
}
