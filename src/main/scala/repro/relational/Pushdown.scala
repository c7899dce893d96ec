package repro.relational

import java.util.Locale

import scala.util.Try

import org.apache.spark.sql.catalyst.analysis.{UnresolvedAttribute, UnresolvedRegex, UnresolvedStar}
import org.apache.spark.sql.catalyst.expressions.{Alias, Expression, LambdaFunction, SubqueryExpression}
import org.apache.spark.sql.catalyst.parser.CatalystSqlParser

import ZExpr._

/** σ and π pushed below ⋈ and × (run after distinct consolidation), so a
  * bilinear operator's integrals keep only the rows and columns its output
  * reads: §4.5 charges a stateful operator the space of the integrals of
  * its operands, and §4.4's circuit filters each table before the join.
  * Both rewrites hold for every Z-set, because σ and π are linear and ⋈ and
  * × bilinear, so unlike [[DistinctOptimizer]] they need no positivity:
  *
  *  - σ_p(a ⋈_k b) = σ_p(a) ⋈_k b when p reads only columns of a, and
  *    a ⋈_k σ_p(b) when it reads only non-key columns of b. An output row
  *    carries a's values in a's columns, key columns included, and b's in
  *    b's other columns, so p sees the same values either way.
  *  - π_L(a ⋈_k b) = π_L(π_A(a) ⋈_k π_B(b)), with A and B the columns of a
  *    and of b that L or k read: the output reads no other column. Fires
  *    only where a column is dropped.
  *
  * × is ⋈ with no keys. A join on all shared columns (intersect's empty key
  * list) is left alone, as its keys depend on both operands' columns.
  *
  * An operand's columns are known syntactically ([[columns]]), and the names
  * an expression reads come from Spark's SQL parser. Where either is
  * unknown, nothing is rewritten. Names compare as Spark resolves them,
  * case-insensitively.
  */
object Pushdown {

  def optimize(e: ZExpr): ZExpr = {
    val e2 = once(e)
    if (e2 == e) e else optimize(e2)
  }

  /** One bottom-up pass of both rewrites. */
  private def once(e: ZExpr): ZExpr = e.mapChildren(once) match {
    case f @ ZFilter(Product(a, b, keys, product), p) =>
      reads(Seq(p)).fold[ZExpr](f) { r =>
        if (names(a).exists(r.subsetOf)) product(ZFilter(a, p), b)
        else if (names(b).exists(r.subsetOf) && !keys.exists(k => r(lower(k)))) product(a, ZFilter(b, p))
        else f
      }
    case m @ ZMap(Product(a, b, keys, product), exprs) =>
      reads(exprs).fold[ZExpr](m) { r =>
        val needed = r ++ keys.map(lower)
        val (a2, b2) = (narrow(a, needed), narrow(b, needed))
        if (a2 == a && b2 == b) m else ZMap(product(a2, b2), exprs)
      }
    case other => other
  }

  /** ⋈ on given keys, or × (no keys), with a way to rebuild it. */
  private object Product {
    def unapply(e: ZExpr): Option[(ZExpr, ZExpr, Seq[String], (ZExpr, ZExpr) => ZExpr)] = e match {
      case ZJoin(a, b, k) if k.nonEmpty => Some((a, b, k, ZJoin(_, _, k)))
      case ZCross(a, b)                 => Some((a, b, Nil, ZCross(_, _)))
      case _                            => None
    }
  }

  /** `x` projected onto its columns in `needed`, if that drops one. */
  private def narrow(x: ZExpr, needed: Set[String]): ZExpr = columns(x).fold(x) { cs =>
    val kept = cs.filter(c => needed(lower(c)))
    if (kept.isEmpty || kept.size == cs.size) x
    else ZMap(x, kept.map(c => "`" + c.replace("`", "``") + "`"))
  }

  /** The node's output column names, when they are known syntactically: a
    * map's are its expressions' aliases or bare column names; σ, distinct
    * and − keep their operand's; + has its operands' (which must agree);
    * ⋈ has its keys and each operand's other columns, × both operands'.
    * Unknown for an input, for a map expression that is neither aliased nor
    * a bare column, and for names that clash case-insensitively.
    */
  def columns(e: ZExpr): Option[Seq[String]] = (e match {
    case ZMap(_, exprs)       => sequence(exprs.map(outputName))
    case ZFilter(in, _)       => columns(in)
    case ZDistinct(in)        => columns(in)
    case ZNeg(in)             => columns(in)
    case ZSum(a, b)           => columns(a).orElse(columns(b))
    case ZJoin(a, b, k) if k.nonEmpty =>
      val key = k.map(lower).toSet
      for (ca <- columns(a); cb <- columns(b))
        yield k ++ (ca ++ cb).filterNot(c => key(lower(c)))
    case ZCross(a, b)         => for (ca <- columns(a); cb <- columns(b)) yield ca ++ cb
    case _                    => None
  }).filter(cs => cs.map(lower).distinct.size == cs.size)

  private def names(e: ZExpr): Option[Set[String]] = columns(e).map(_.map(lower).toSet)

  /** The column a map expression outputs: its alias, or the column it is. */
  private def outputName(sql: String): Option[String] = parse(sql).collect {
    case a: Alias                                      => a.name
    case a: UnresolvedAttribute if a.nameParts.size == 1 => a.nameParts.head
  }

  /** The column names `exprs` read, lower-cased; unknown when one of them
    * cannot be parsed or reads a column other than by a one-part name (a
    * star, a regex, a field path, a lambda, a subquery).
    */
  private def reads(exprs: Seq[String]): Option[Set[String]] =
    sequence(exprs.map(sql => parse(sql).filterNot(_.exists {
      case _: UnresolvedStar | _: UnresolvedRegex | _: LambdaFunction | _: SubqueryExpression => true
      case a: UnresolvedAttribute                                                         => a.nameParts.size != 1
      case _                                                                              => false
    }))).map(_.flatMap(_.collect { case a: UnresolvedAttribute => lower(a.nameParts.head) }).toSet)

  private def parse(sql: String): Option[Expression] = Try(CatalystSqlParser.parseExpression(sql)).toOption

  private def lower(name: String): String = name.toLowerCase(Locale.ROOT)

  private def sequence[A](xs: Seq[Option[A]]): Option[Seq[A]] =
    if (xs.forall(_.isDefined)) Some(xs.map(_.get)) else None
}
