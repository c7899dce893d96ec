package repro.relational

import ZExpr._

/** Distinct-consolidation (Algorithm 4.8 step 2), using:
  *
  *  - Prop 4.5 (delay): `Q(distinct(i)) = distinct(Q(i))` for Q ∈ {σ, ⋈, ×}
  *    and positive `i` — distinct commutes upward through those operators.
  *  - Prop 4.6 (absorb): `distinct(Q(distinct(i))) = distinct(Q(i))` for
  *    Q ∈ {σ, π/map, +, ⋈, ×} and positive `i` — an outer distinct absorbs
  *    inner ones through a chain of such operators, because on positive
  *    inputs the *support* of each of these operators' output depends only
  *    on the supports of its inputs.
  *
  * Positivity matters: `distinct(distinct(x) − b) ≠ distinct(x − b)` in
  * general (e.g. x = {v↦3}, b = {v↦1}). We therefore use a conservative
  * syntactic check — a subtree is known-positive iff it contains no `ZNeg`
  * (circuit inputs are sets, and all other operators preserve positivity).
  * Rewrites only fire where the touched operands are known-positive, so the
  * optimizer is sound for every circuit Table 1 produces, including EXCEPT
  * and antijoin (whose negated branches are simply left alone).
  */
object DistinctOptimizer {

  def optimize(e: ZExpr): ZExpr = fix(e)(once)

  /** True iff the subtree contains no negation — hence (on set inputs) every
    * value it produces is a positive Z-set.
    */
  def isNegFree(e: ZExpr): Boolean = e match {
    case ZNeg(_) => false
    case _       => e.children.forall(isNegFree)
  }

  private def fix(e: ZExpr)(f: ZExpr => ZExpr): ZExpr = {
    val e2 = f(e)
    if (e2 == e) e else fix(e2)(f)
  }

  /** One bottom-up pass of both rewrite rules. */
  private def once(e: ZExpr): ZExpr = e.mapChildren(once) match {
    case ZDistinct(in) => ZDistinct(absorb(in))
    case other         => pullThrough(other)
  }

  /** Prop 4.5: hoist a distinct sitting directly below σ/⋈/× above it.
    * Requires the distinct's input — and, for the bilinear operators, the
    * sibling operand — to be known-positive.
    */
  private def pullThrough(e: ZExpr): ZExpr = e match {
    case ZFilter(ZDistinct(x), p) if isNegFree(x) =>
      ZDistinct(ZFilter(x, p))
    case ZJoin(ZDistinct(x), b, k) if isNegFree(x) && isNegFree(b) =>
      ZDistinct(ZJoin(x, b, k))
    case ZJoin(a, ZDistinct(x), k) if isNegFree(a) && isNegFree(x) =>
      ZDistinct(ZJoin(a, x, k))
    case ZCross(ZDistinct(x), b) if isNegFree(x) && isNegFree(b) =>
      ZDistinct(ZCross(x, b))
    case ZCross(a, ZDistinct(x)) if isNegFree(a) && isNegFree(x) =>
      ZDistinct(ZCross(a, x))
    case other => other
  }

  /** Prop 4.6 (iterated): under an enclosing distinct, drop distincts that
    * sit below a chain of {σ, π/map, +, ⋈, ×} nodes, provided the whole
    * region is known-positive.
    */
  private def absorb(e: ZExpr): ZExpr =
    if (!isNegFree(e)) e
    else e match {
      case ZDistinct(x) => absorb(x) // distinct ∘ distinct = distinct
      case other        => other.mapChildren(absorb)
    }
}
