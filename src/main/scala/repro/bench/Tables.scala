package repro.bench

import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import repro.core.{BiBlockEngine, BlockLoading, LblTrainer, LoadLogCollector}
import repro.disk.DiskSim
import repro.engine._
import repro.graph.{Datasets, GraphSpec}
import repro.walk.WalkTask

/** Shared harness behind the `bench/` suites and the `jobs/` entry point: one
  * runner per evaluation table, with deterministic, memoized engine runs and
  * paper reference values printed side by side.
  */
object Tables {

  // ---- workloads -------------------------------------------------------

  /** RWNV at lite scale: 2 walks/vertex (paper: 10) of length 80 (the
    * paper's) on every graph; the σ_W bridge accounts for the fewer walks.
    */
  def task(spec: GraphSpec, kind: String)(implicit spark: SparkSession): WalkTask = {
    val g = Datasets.csr(spec)
    kind match {
      case "RWNV" =>
        // Paper length 80 is kept: the dense-graph crossover of Table 6
        // hinges on supersteps (= length) driving GraSorw's fixed block
        // sweeps while σ_W normalizes the baselines' per-step costs.
        WalkTask.rwnv(g, walksPerVertex = 2, len = 80)
      case "PRNV"         => WalkTask.prnv(g)
      case "DeepWalk"     => WalkTask.deepwalk(g)
      case other          => throw new IllegalArgumentException(s"unknown task kind $other")
    }
  }

  // ---- memoized engine runs -------------------------------------------

  private val runCache = mutable.Map.empty[(String, String, String, String), DiskSim.Metrics]
  private val lblCache = mutable.Map.empty[(String, String, String, String), BlockLoading.Learned]

  /** Train the learning-based loading model (§5.2.2 protocol: one
    * profiling run under full load, one under on-demand load, then
    * per-block regression) for the engine `profiled` builds from a policy
    * and a log. `engineKind` keeps each engine's policy apart in the cache.
    */
  private def lblPolicy(spec: GraphSpec, partition: String, taskKind: String, engineKind: String)
                       (profiled: (BlockLoading.Policy, LoadLogCollector) => WalkEngine)
                       (implicit spark: SparkSession): BlockLoading.Learned =
    lblCache.getOrElseUpdate((spec.name, partition, taskKind, engineKind), {
      val bg = Datasets.blocked(spec, partition)
      val t = task(spec, taskKind)
      LblTrainer.learn(bg.nBlocks)((policy, log) => profiled(policy, log).run(bg, t, Scale.sim(spec, bg, t)))
    })

  private def engineFor(kind: String, spec: GraphSpec, partition: String, taskKind: String)
                       (implicit spark: SparkSession): WalkEngine = kind match {
    case "PB"             => new PlainBucketEngine
    case "Bi-Block"       => new BiBlockEngine(BlockLoading.AlwaysFull)
    case "SOGW"           => new SogwEngine(staticCache = false)
    case "SGSC"           => new SogwEngine(staticCache = true)
    case "GraSorw"        =>
      new BiBlockEngine(lblPolicy(spec, partition, taskKind, kind)(new BiBlockEngine(_, _)))
    case "FO-GraSorw"     => new FirstOrderEngine(new Scheduling.Iteration,
      lblPolicy(spec, partition, taskKind, kind)(new FirstOrderEngine(new Scheduling.Iteration, _, _)))
    case s if s.startsWith("FO:") => new FirstOrderEngine(Scheduling.byName(s.drop(3)), BlockLoading.AlwaysFull)
    case other            => throw new IllegalArgumentException(s"unknown engine kind $other")
  }

  /** Run (memoized) one engine over one dataset/partition/task. */
  def run(spec: GraphSpec, partition: String, taskKind: String, engineKind: String)
         (implicit spark: SparkSession): DiskSim.Metrics =
    runCache.getOrElseUpdate((spec.name, partition, taskKind, engineKind), {
      val bg = Datasets.blocked(spec, partition)
      val t = task(spec, taskKind)
      val sim = Scale.sim(spec, bg, t)
      val m = engineFor(engineKind, spec, partition, taskKind).run(bg, t, sim)
      Console.err.println(f"[bench] ${spec.name}%-10s $partition%-8s $taskKind%-12s $engineKind%-14s " +
        f"wall=${m.wallTimeSec}%12.1f blockIO=${m.blockIOCount}%8d vertexIO=${m.vertexIOCount}%10d")
      m
    })

  // ---- formatting ------------------------------------------------------

  def fmt(x: Double): String =
    if (x.isNaN) "-"
    else if (x == 0) "0"
    else if (math.abs(x) >= 1000) f"$x%.0f"
    else if (math.abs(x) >= 10) f"$x%.1f"
    else f"$x%.2f"

  def grid(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def line(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    (line(header) +: ("-" * (widths.sum + 2 * (widths.size - 1))) +: rows.map(line)).mkString("\n")
  }

  // ---- Table 2: dataset statistics ------------------------------------

  final case class T2Row(dataset: String, nV: Int, nE: Long, csrBytes: Long,
                         nBlocks: Int, edgeCutPct: Double)

  def table2Rows()(implicit spark: SparkSession): Seq[T2Row] =
    Datasets.real.map { spec =>
      val bg = Datasets.blocked(spec, "seq")
      T2Row(spec.name, bg.g.nV, bg.g.nEdgesUndirected, bg.totalBytes, bg.nBlocks,
            bg.edgeCut * 100)
    }

  def renderTable2(rows: Seq[T2Row]): String = {
    val header = Seq("Graph", "|V|", "|E|", "CSR bytes", "#Blocks", "Edge-Cut%",
                     "paper |V|", "paper |E|", "paper cut%")
    grid(header, rows.map { r =>
      val p = PaperNumbers.table2(r.dataset)
      Seq(r.dataset, r.nV.toString, r.nE.toString, r.csrBytes.toString, r.nBlocks.toString,
          fmt(r.edgeCutPct), fmt(p._1), fmt(p._2), fmt(p._5))
    })
  }

  // ---- run rows and metric columns ------------------------------------

  /** One memoized engine run under the labels its table prints for it,
    * such as (graph, task, engine) or (graph, strategy).
    */
  final case class Row(labels: Seq[String], m: DiskSim.Metrics)

  /** One table column: its header and the cell it prints for a row. */
  final case class Column(header: String, cell: Row => String)

  /** The metrics of the row labelled `labels`. */
  def metrics(rows: Seq[Row], labels: String*): DiskSim.Metrics =
    rows.find(_.labels == labels)
      .getOrElse(throw new NoSuchElementException(s"no row ${labels.mkString(" ")}")).m

  /** The label columns, then one column per entry of `columns`. */
  def render(labelHeaders: Seq[String], columns: Seq[Column], rows: Seq[Row]): String =
    grid(labelHeaders ++ columns.map(_.header), rows.map(r => r.labels ++ columns.map(_.cell(r))))

  private def secs(header: String, f: DiskSim.Metrics => Double) = Column(header, r => fmt(f(r.m)))

  private val wall = secs("Wall(s)", _.wallTimeSec)
  private val exec = secs("Exec(s)", _.execTimeSec)
  private val ioSecs = secs("I/O(s)", _.ioTimeSec)
  private val blockIOSecs = secs("BlockIO(s)", _.blockIOTimeSec)
  private val blockIOs = Column("BlockIO#", _.m.blockIOCount.toString)
  private val onDemandSecs = secs("OD-IO(s)", _.vertexIOTimeSec)
  private val onDemandIOs = Column("OD-IO#", _.m.vertexIOCount.toString)

  private val secondOrderTasks = Seq("RWNV", "PRNV")
  private val systems = Seq("SOGW", "SGSC", "GraSorw")

  /** Every (graph, task, engine) run under the sequential partition. */
  private def runs(specs: Seq[GraphSpec], engines: Seq[String])(implicit spark: SparkSession): Seq[Row] =
    for (spec <- specs; taskKind <- secondOrderTasks; engine <- engines)
      yield Row(Seq(spec.name, taskKind, engine), run(spec, "seq", taskKind, engine))

  // ---- Table 3: PB vs Bi-Block ----------------------------------------

  def table3Rows()(implicit spark: SparkSession): Seq[Row] = runs(Datasets.real, Seq("PB", "Bi-Block"))

  private def p3(r: Row) = PaperNumbers.table3((r.labels(0), r.labels(1), r.labels(2)))

  def renderTable3(rows: Seq[Row]): String =
    render(Seq("Graph", "Task", "Engine"), Seq(wall, exec, blockIOs, blockIOSecs,
      Column("p.Wall", r => fmt(p3(r)._1)), Column("p.Exec", r => fmt(p3(r)._2)),
      Column("p.BIO#", r => p3(r)._3.toString), Column("p.BIO(s)", r => fmt(p3(r)._4))), rows)

  // ---- Table 4: loading methods x partitions (RWNV) -------------------

  def table4Rows()(implicit spark: SparkSession): Seq[Row] =
    for {
      spec <- Seq(Datasets.tw, Datasets.uk)
      (partition, partitionLabel) <- Seq("seq" -> "Seq", "locality" -> "METIS")
      (loader, engine) <- Seq("Full" -> "Bi-Block", "Learned" -> "GraSorw")
    } yield Row(Seq(spec.name, partitionLabel, loader), run(spec, partition, "RWNV", engine))

  private def p4(r: Row) = PaperNumbers.table4((r.labels(0), r.labels(1), r.labels(2)))

  def renderTable4(rows: Seq[Row]): String =
    render(Seq("Graph", "Partition", "Loader"),
      Seq(wall, exec, blockIOSecs, blockIOs, onDemandSecs, onDemandIOs, Column("p.Wall", r => fmt(p4(r)._1)),
        Column("p.BIO#", r => p4(r)._4.toString), Column("p.OD#", r => p4(r)._6.toString)), rows)

  // ---- Table 5: synthetic statistics ----------------------------------

  final case class T5Row(dataset: String, nV: Int, nE: Long, avgDeg: Double,
                         csrBytes: Long, nBlocks: Int)

  def table5Rows()(implicit spark: SparkSession): Seq[T5Row] =
    Datasets.synthetic.map { spec =>
      val bg = Datasets.blocked(spec, "seq")
      T5Row(spec.name, bg.g.nV, bg.g.nEdgesUndirected, bg.g.avgDegree, bg.totalBytes, bg.nBlocks)
    }

  def renderTable5(rows: Seq[T5Row]): String =
    grid(Seq("Graph", "|V|", "|E|", "AvgDeg", "CSR bytes", "#Blocks"),
         rows.map(r => Seq(r.dataset, r.nV.toString, r.nE.toString, fmt(r.avgDeg),
                           r.csrBytes.toString, r.nBlocks.toString)))

  // ---- Table 6: three systems on the synthetic family -----------------

  def table6Rows()(implicit spark: SparkSession): Seq[Row] = runs(Datasets.synthetic, systems)

  /** One line per (graph, task), with each system's wall time in a column. */
  def renderTable6(rows: Seq[Row]): String =
    grid(Seq("Graph", "Task") ++ systems ++ systems.map("p." + _),
      rows.map(_.labels.take(2)).distinct.map { case k @ Seq(d, t) =>
        k ++ systems.map(s => fmt(metrics(rows, d, t, s).wallTimeSec)) ++
          systems.map(s => fmt(PaperNumbers.table6((d, t, s))))
      })

  // ---- End-to-end (Figure 8 analog): three systems on real graphs -----

  def endToEndRows()(implicit spark: SparkSession): Seq[Row] = runs(Datasets.real, systems)

  def renderEndToEnd(rows: Seq[Row]): String =
    render(Seq("Graph", "Task", "System"), Seq(wall, exec, ioSecs, Column("Speedup-vs-SOGW", r =>
      fmt(metrics(rows, r.labels(0), r.labels(1), "SOGW").wallTimeSec / r.m.wallTimeSec) + "x")), rows)

  // ---- Table 7: first-order engines -----------------------------------

  private val t7Systems =
    Seq("GraphWalker" -> "FO:GraphWalker", "GraSorw-No-LBL" -> "FO:Iteration", "GraSorw" -> "FO-GraSorw")

  def table7Rows()(implicit spark: SparkSession): Seq[Row] =
    for {
      spec <- Seq(Datasets.lj, Datasets.tw, Datasets.fr, Datasets.uk)
      (label, kind) <- t7Systems
    } yield Row(Seq(spec.name, label), run(spec, "seq", "DeepWalk", kind))

  private def p7(r: Row) = PaperNumbers.table7((r.labels(0), r.labels(1)))

  def renderTable7(rows: Seq[Row]): String =
    render(Seq("Graph", "System"), Seq(wall, exec, blockIOSecs, Column("p.Wall", r => fmt(p7(r)._1)),
      Column("p.Exec", r => fmt(p7(r)._2)), Column("p.BIO(s)", r => fmt(p7(r)._3))), rows)

  // ---- Table 8: scheduling strategies ---------------------------------

  val t8Strategies = Seq("Alphabet", "Iteration", "Min-Height", "Max-Sum", "GraphWalker")

  def table8Rows()(implicit spark: SparkSession): Seq[Row] =
    for {
      spec <- Seq(Datasets.lj, Datasets.tw, Datasets.fr, Datasets.uk)
      strat <- t8Strategies
    } yield Row(Seq(spec.name, strat), run(spec, "seq", "DeepWalk", s"FO:$strat"))

  def renderTable8(rows: Seq[Row]): String =
    render(Seq("Graph", "Strategy"), Seq(blockIOs, blockIOSecs,
      Column("p.BlockIO#", r => PaperNumbers.table8((r.labels(0), r.labels(1))).toString)), rows)
}
