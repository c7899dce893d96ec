package repro.harness

/** Tiny reporting helpers shared by the experiments: wall-clock timing and
  * aligned-markdown table rendering, so each experiment prints rows diffable
  * against EXPERIMENTS.md.
  */
object Report {

  /** Wall-clock an expression; returns (result, milliseconds). */
  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e6)
  }

  /** Wall-clock each of `bodies`, reporting the best (minimum) time — robust
    * to JIT/codegen warm-up on the first occurrence of a plan shape. Bodies
    * are distinct expressions because stateful ticks cannot be replayed.
    */
  def timedBest[A](bodies: Seq[() => A]): (A, Double) = {
    val results = bodies.map(b => timed(b()))
    results.minBy(_._2)
  }

  /** Render a markdown table with aligned columns. */
  def table(title: String, headers: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = headers +: rows
    val widths = headers.indices.map(i => all.map(_(i).length).max)
    def line(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("| ", " | ", " |")
    (s"\n### $title" +: line(headers) +: sep +: rows.map(line)).mkString("\n")
  }

  def emit(title: String, headers: Seq[String], rows: Seq[Seq[String]]): Unit =
    // scalastyle:off println — the table IS the experiment's deliverable.
    println(table(title, headers, rows))

  def f1(v: Double): String = f"$v%.1f"
  def f2(v: Double): String = f"$v%.2f"
}
