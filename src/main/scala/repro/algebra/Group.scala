package repro.algebra

/** A commutative (abelian) group — the value domain DBSP streams range over
  * (§2.2 of the paper). Instances exist for numbers (used to test the stream
  * calculus), for Z-sets (`repro.zset.ZSet.group`) and for finite vectors
  * (used to model rows of nested streams in tests).
  *
  * `compact` is an implementation hook: stateful stream operators call it on
  * every state update so DataFrame-backed values can cut lineage/consolidate.
  * It must be semantically the identity. For Z-sets it also records the
  * value's entry count, so a later `isZero` of the compacted value, or
  * `compact` of it again, costs no Spark job.
  */
trait Group[A] {
  def zero: A
  def plus(a: A, b: A): A
  def negate(a: A): A
  def isZero(a: A): Boolean

  def minus(a: A, b: A): A = plus(a, negate(b))

  /** Semantically the identity; may consolidate / materialize, and may make
    * `isZero` of the result free.
    */
  def compact(a: A): A = a
}

object Group {
  def apply[A](implicit g: Group[A]): Group[A] = g

  implicit val longGroup: Group[Long] = new Group[Long] {
    val zero = 0L
    def plus(a: Long, b: Long): Long = a + b
    def negate(a: Long): Long = -a
    def isZero(a: Long): Boolean = a == 0L
  }

  /** Finite maps with group values, absent key = zero — an in-memory Z-set.
    * Used for fast property tests of the stream calculus without Spark.
    */
  implicit def mapGroup[K, V](implicit gv: Group[V]): Group[Map[K, V]] =
    new Group[Map[K, V]] {
      val zero: Map[K, V] = Map.empty
      def plus(a: Map[K, V], b: Map[K, V]): Map[K, V] = {
        val keys = a.keySet ++ b.keySet
        keys.iterator.map { k =>
          k -> gv.plus(a.getOrElse(k, gv.zero), b.getOrElse(k, gv.zero))
        }.filterNot { case (_, v) => gv.isZero(v) }.toMap
      }
      def negate(a: Map[K, V]): Map[K, V] = a.map { case (k, v) => k -> gv.negate(v) }
      def isZero(a: Map[K, V]): Boolean = a.values.forall(gv.isZero)
    }
}
