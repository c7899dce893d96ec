package repro.nested

import repro.algebra.Group
import repro.circuit.Op
import repro.nested.NestedOp.{inner, outer}

/** Brute-force doubly-incremental unary operator: D ∘ ↑D ∘ ↑↑f ∘ ↑I ∘ I
  * (§6.2's "unoptimized loop body"). The reference the nested incremental
  * distinct is checked against.
  */
final class NestedIncrementalUnaryBrute[A, B](f: A => B)(
    implicit ga: Group[A], gb: Group[B]) {
  private val io = outer(Op.integrate[A])
  private val ii = inner(Op.integrate[A])
  private val di = inner(Op.differentiate[B])
  private val dd = outer(Op.differentiate[B])

  def newOuterTick(): Unit = {
    io.newOuterTick(); ii.newOuterTick(); di.newOuterTick(); dd.newOuterTick()
  }

  def step(a: A): B = dd.step(di.step(f(ii.step(io.step(a)))))
}

/** Brute-force doubly-incremental binary operator (each input integrated at
  * both levels, output differentiated at both levels). The reference the
  * nested incremental bilinear operator is checked against.
  */
final class NestedIncrementalBinaryBrute[A, B, C](f: (A, B) => C)(
    implicit ga: Group[A], gb: Group[B], gc: Group[C]) {
  private val ioA = outer(Op.integrate[A])
  private val iiA = inner(Op.integrate[A])
  private val ioB = outer(Op.integrate[B])
  private val iiB = inner(Op.integrate[B])
  private val di  = inner(Op.differentiate[C])
  private val dd  = outer(Op.differentiate[C])

  def newOuterTick(): Unit = {
    ioA.newOuterTick(); iiA.newOuterTick(); ioB.newOuterTick(); iiB.newOuterTick()
    di.newOuterTick(); dd.newOuterTick()
  }

  def step(a: A, b: B): C =
    dd.step(di.step(f(iiA.step(ioA.step(a)), iiB.step(ioB.step(b)))))
}
