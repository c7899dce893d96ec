package repro.zset

import org.apache.spark.sql.types._

import repro.{SparkSpec, ZSetFixtures}

/** §4.1–4.2: the Z-set group and its relational operators. */
class ZSetSpec extends SparkSpec with ZSetFixtures {

  // The paper's running example: R = {joe ↦ 1, anne ↦ −1}.
  private def paperR: ZSet = zsS("name", "joe" -> 1L, "anne" -> -1L)

  test("membership: x ∈ m iff m[x] ≠ 0") {
    assert(paperR.entryCount == 2)
  }

  test("paper example: isset(R) = false") {
    assert(!paperR.isSetLike)
  }

  test("paper example: ispositive(R) = false") {
    assert(!paperR.isPositive)
  }

  test("paper example: distinct(R) = {joe ↦ 1}") {
    assert(entriesOf(paperR.distinctZ) == Set((Seq("joe"), 1L)))
  }

  test("isset ⇒ ispositive (Def 4.2)") {
    val s = zsS("name", "a" -> 1L, "b" -> 1L)
    assert(s.isSetLike && s.isPositive)
  }

  test("a bag is positive but not a set") {
    val b = zsS("name", "a" -> 2L, "b" -> 1L)
    assert(b.isPositive && !b.isSetLike)
  }

  test("group: addition is pointwise on multiplicities") {
    val a = zs1("k", 1L -> 2L, 2L -> 1L)
    val b = zs1("k", 1L -> -1L, 3L -> 5L)
    assert(entriesOf(a.plus(b)) == Set((Seq("1"), 1L), (Seq("2"), 1L), (Seq("3"), 5L)))
  }

  test("group: a + (−a) = 0") {
    val a = zs1("k", 1L -> 2L, 2L -> -3L)
    assert(a.plus(a.negate).isEmpty)
  }

  test("group: commutativity and associativity (sample)") {
    val a = zs1("k", 1L -> 1L)
    val b = zs1("k", 1L -> 2L, 2L -> 1L)
    val c = zs1("k", 2L -> -1L, 3L -> 4L)
    assert(a.plus(b).zequals(b.plus(a)))
    assert(a.plus(b.plus(c)).zequals(a.plus(b).plus(c)))
  }

  test("consolidate merges duplicate tuples and drops zero weights") {
    val a = zs1("k", 1L -> 2L).plus(zs1("k", 1L -> -2L, 2L -> 1L))
    val c = a.consolidate()
    assert(entriesOf(c) == Set((Seq("2"), 1L)))
    assert(c.df.count() == 1) // physically one row after consolidation
  }

  test("scale multiplies all weights") {
    val a = zs1("k", 1L -> 2L, 2L -> -1L)
    assert(entriesOf(a.scale(-3)) == Set((Seq("1"), -6L), (Seq("2"), 3L)))
  }

  test("distinct is idempotent and always positive") {
    val a = zs1("k", 1L -> 5L, 2L -> -2L, 3L -> 1L)
    val d = a.distinctZ
    assert(d.isSetLike)
    assert(d.distinctZ.zequals(d))
  }

  test("filterZ keeps multiplicities") {
    val a = zs1("k", 1L -> 2L, 5L -> -1L, 10L -> 3L)
    val f = a.filterZ(org.apache.spark.sql.functions.col("k") >= 5)
    assert(entriesOf(f) == Set((Seq("5"), -1L), (Seq("10"), 3L)))
  }

  test("project merges weights of collapsed tuples (π is linear, not set-π)") {
    val a = zs2("k", "v", (1L, 10L) -> 1L, (1L, 20L) -> 2L, (2L, 10L) -> 1L)
    val p = a.project("k")
    assert(entriesOf(p) == Set((Seq("1"), 3L), (Seq("2"), 1L)))
  }

  test("mapRows applies SQL expressions and keeps weights") {
    val a = zs1("k", 1L -> 2L, 2L -> -1L)
    val mres = a.mapRows("k * 10 AS k10")
    assert(entriesOf(mres) == Set((Seq("10"), 2L), (Seq("20"), -1L)))
  }

  test("join multiplies weights (bilinear)") {
    val a = zs2("k", "va", (1L, 7L) -> 2L, (2L, 8L) -> 1L)
    val b = zs2("k", "vb", (1L, 9L) -> -3L, (3L, 9L) -> 1L)
    val j = a.join(b, Seq("k"))
    assert(entriesOf(j) == Set((Seq("1", "7", "9"), -6L)))
  }

  test("cartesian multiplies weights") {
    val a = zs1("x", 1L -> 2L)
    val b = zs1("y", 5L -> 3L, 6L -> -1L)
    val c = a.cartesian(b)
    assert(entriesOf(c) == Set((Seq("1", "5"), 6L), (Seq("1", "6"), -2L)))
  }

  test("totalWeight is the COUNT aggregate on Z-sets") {
    val a = zs1("k", 1L -> 2L, 2L -> -1L, 3L -> 4L)
    assert(a.totalWeight == 5L)
  }

  test("toSetDF / toBagDF conversions") {
    val a = zs1("k", 1L -> 2L, 2L -> 1L)
    assert(a.toSetDF.count() == 2)
    assert(a.toBagDF.count() == 3)
  }

  test("tozset of a bag counts duplicates") {
    val z = ZSet.fromBag(df1("k", 1L, 1L, 1L, 2L))
    assert(entriesOf(z) == Set((Seq("1"), 3L), (Seq("2"), 1L)))
  }

  test("tozset of a set gives weight 1 (§4.2.1)") {
    val z = ZSet.fromSet(df1("k", 1L, 1L, 2L))
    assert(entriesOf(z) == Set((Seq("1"), 1L), (Seq("2"), 1L)))
  }

  test("toset ∘ tozset = id on sets (§4.2.1 commuting diagram)") {
    val df = df1("k", 1L, 2L, 3L)
    val roundTrip = ZSet.fromSet(df).toSetDF
    assert(roundTrip.collect().map(_.getLong(0)).toSet == Set(1L, 2L, 3L))
  }

  test("empty Z-set is the group zero") {
    val e = ZSet.empty(spark, StructType(Seq(StructField("k", LongType))))
    val a = zs1("k", 1L -> 1L)
    assert(e.isEmpty)
    assert(a.plus(e).zequals(a))
  }

  test("compact preserves meaning and consolidates") {
    val a = zs1("k", 1L -> 2L).plus(zs1("k", 1L -> 3L, 2L -> 1L))
    val c = a.compact()
    assert(c.zequals(a))
    assert(c.df.count() == 2)
  }

  test("zequals identifies equal content regardless of representation") {
    val a = zs1("k", 1L -> 2L)
    val b = zs1("k", 1L -> 1L).plus(zs1("k", 1L -> 1L))
    assert(a.zequals(b))
    assert(!a.zequals(zs1("k", 1L -> 3L)))
  }

  test("set difference via group minus + distinct (Table 1 EXCEPT)") {
    val a = zs1("k", 1L -> 1L, 2L -> 1L, 3L -> 1L)
    val b = zs1("k", 2L -> 1L, 4L -> 1L)
    val except = a.minus(b).distinctZ
    assert(entriesOf(except) == Set((Seq("1"), 1L), (Seq("3"), 1L)))
  }

  test("set union via add + distinct (Table 1 UNION)") {
    val a = zs1("k", 1L -> 1L, 2L -> 1L)
    val b = zs1("k", 2L -> 1L, 3L -> 1L)
    val union = a.plus(b).distinctZ
    assert(entriesOf(union) == Set((Seq("1"), 1L), (Seq("2"), 1L), (Seq("3"), 1L)))
  }

  test("plus rejects a column of another type, also against a known zero") {
    val longs = zs1("k", 1L -> 1L)
    val strings = zsS("k", "a" -> 1L)
    val emptyLongs = ZSet.empty(spark, longs.dataSchema)
    val emptyStrings = ZSet.empty(spark, strings.dataSchema)
    for ((a, b) <- Seq(longs -> strings, emptyLongs -> strings, longs -> emptyStrings,
                       emptyLongs -> emptyStrings)) {
      intercept[IllegalArgumentException](a.plus(b))
      intercept[IllegalArgumentException](b.plus(a))
    }
    // Nullability is not part of the check.
    val nullable = ZSet.empty(spark, StructType(Seq(StructField("k", LongType, nullable = true))))
    assert(longs.dataSchema("k").nullable != nullable.dataSchema("k").nullable)
    assert(longs.plus(nullable).zequals(longs) && nullable.plus(longs).zequals(longs))
  }
}
