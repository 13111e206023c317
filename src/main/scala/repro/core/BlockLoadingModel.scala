package repro.core

import scala.collection.mutable.ArrayBuffer
import repro.disk.DiskSim
import repro.graph.BlockedGraph

/** Block loading (§5): the full-load and on-demand-load methods, and the
  * learning-based model that picks between them.
  */
object BlockLoading {

  /** How a block is brought into memory. */
  sealed trait Mode
  case object Full extends Mode
  case object OnDemand extends Mode

  /** A block `load` charged, until its (block, η, t) sample is logged. */
  final class Loaded private[BlockLoading] (
      i: Int, eta: Double, sim: DiskSim, log: LoadLogCollector, t0: Double) {

    /** Record this load's (i, η, t) sample into the log `load` was given, if
      * any; `t` is the simulated time from the load to now, so call it once
      * the bucket's steps and walk I/O are charged.
      */
    def logSample(): Unit =
      if (log != null) log.record(i, eta, sim.wallTimeSec - t0)
  }

  /** Load block `i` for a bucket of `walks` walks: take η = walks / |V_i|,
    * let `policy` pick the mode, and charge `sim` a full load or the
    * on-demand load of the `touched` vertices of `i` the bucket reads — the
    * ones its walks activate (their previous or current vertex inside `i`,
    * the Vertex Map of Fig. 5) and the others it steps from, one light
    * vertex I/O each (§5.1). A step needs only its current vertex: its
    * previous vertex was its current vertex one step earlier, or activated.
    * With a `log`, the start time is taken for the sample `logSample`
    * records.
    */
  def load(bg: BlockedGraph, i: Int, policy: Policy, walks: Int, touched: Int,
           sim: DiskSim, log: LoadLogCollector = null): Loaded = {
    val t0 = if (log != null) sim.wallTimeSec else 0.0
    val eta = BlockLoading.eta(walks, bg.verticesInBlock(i))
    policy.mode(i, eta) match {
      case Full => sim.readBlock(bg.blockOffset(i), bg.blockBytes(i))
      case OnDemand => if (touched > 0) sim.readVertices(touched)
    }
    new Loaded(i, eta, sim, log, t0)
  }

  /** η = |W| / |V_b| (§5.2): walks loading a block per vertex of it. */
  def eta(nWalks: Int, nVertices: Int): Double = nWalks.toDouble / math.max(1, nVertices)

  /** A loading policy decides the mode for a block from its η. */
  trait Policy {
    def mode(block: Int, eta: Double): Mode
  }
  object AlwaysFull extends Policy { def mode(b: Int, eta: Double): Mode = Full }
  object AlwaysOnDemand extends Policy { def mode(b: Int, eta: Double): Mode = OnDemand }

  /** The learned threshold policy (§5.2.2): full load iff η > η₀(block). */
  final class Learned(val thresholds: Array[Double]) extends Policy {
    def mode(block: Int, eta: Double): Mode = if (eta > thresholds(block)) Full else OnDemand
  }
}

/** Collects (block, η, t) samples from profiling runs — the "running log"
  * of §5.2.2 (one run under full load, one under on-demand load).
  */
final class LoadLogCollector {
  import LoadLogCollector.Sample
  val samples: ArrayBuffer[Sample] = new ArrayBuffer
  def record(block: Int, eta: Double, timeSec: Double): Unit =
    samples += Sample(block, eta, timeSec)
}

object LoadLogCollector {
  final case class Sample(block: Int, eta: Double, timeSec: Double)
}

/** Training of the learning-based block loading model (§5.2).
  *
  * Per block, fits t_f = α_f·η + b_f (with intercept — b_f is the fixed
  * full-load cost) and t_o = α_o·η (no intercept — an empty walk set loads
  * nothing on demand), then derives the switching threshold
  * η₀ = b_f / (α_o − α_f). Blocks with too few samples fall back to the
  * pooled fit over all blocks.
  */
object LblTrainer {
  private[core] type Samples = scala.collection.IndexedSeq[LoadLogCollector.Sample]
  private val MinSamplesPerBlock = 3

  /** The §5.2.2 profiling protocol: one run under full load and one under
    * on-demand load, each logging its samples, then `train`. `run` runs
    * the task once under the given policy, recording into the given log.
    */
  def learn(nBlocks: Int)(run: (BlockLoading.Policy, LoadLogCollector) => Unit): BlockLoading.Learned = {
    val fullLog = new LoadLogCollector
    val odLog = new LoadLogCollector
    run(BlockLoading.AlwaysFull, fullLog)
    run(BlockLoading.AlwaysOnDemand, odLog)
    train(nBlocks, fullLog, odLog)
  }

  def train(nBlocks: Int, fullLog: LoadLogCollector, onDemandLog: LoadLogCollector): BlockLoading.Learned = {
    // §5.2.1: the t_o–η model is linear only for η < η₀ (above it, the
    // activated set saturates at the block size). Since η₀ is what we are
    // solving for, fit iteratively: start from all samples, then refit the
    // on-demand model on the sub-threshold region until stable.
    def fitPair(full: Samples, od: Samples): Option[Double] = {
      if (full.length < 2 || od.isEmpty) None
      else {
        val (alphaF, bF) = lineFit(full)
        var cap = Double.PositiveInfinity
        var eta0 = Double.PositiveInfinity
        var iter = 0
        while (iter < 4) {
          val sub = od.filter(_.eta <= cap)
          if (sub.isEmpty) iter = 4 // keep the last stable estimate
          else {
            eta0 = threshold(alphaF, bF, originFit(sub))
            cap = eta0
            iter += 1
          }
        }
        Some(eta0)
      }
    }

    val fullBy = fullLog.samples.groupBy(_.block)
    val odBy   = onDemandLog.samples.groupBy(_.block)
    val pooledEta = fitPair(fullLog.samples, onDemandLog.samples).getOrElse(0.0)

    val thresholds = Array.tabulate(nBlocks) { b =>
      val enough = fullBy.get(b).exists(_.length >= MinSamplesPerBlock) &&
                   odBy.get(b).exists(_.length >= MinSamplesPerBlock)
      if (enough) fitPair(fullBy(b), odBy(b)).getOrElse(pooledEta) else pooledEta
    }
    new BlockLoading.Learned(thresholds)
  }

  /** Least-squares line t = α·η + b through `ss`: (α, b). */
  private[core] def lineFit(ss: Samples): (Double, Double) = {
    require(ss.nonEmpty, "need samples")
    val n = ss.length
    var sx = 0.0; var sy = 0.0
    var i = 0
    while (i < n) { sx += ss(i).eta; sy += ss(i).timeSec; i += 1 }
    val mx = sx / n; val my = sy / n
    var sxy = 0.0; var sxx = 0.0
    i = 0
    while (i < n) {
      val dx = ss(i).eta - mx
      sxy += dx * (ss(i).timeSec - my); sxx += dx * dx
      i += 1
    }
    val slope = if (sxx == 0) 0.0 else sxy / sxx
    (slope, my - slope * mx)
  }

  /** Least-squares slope α of t = α·η through the origin and `ss`. */
  private[core] def originFit(ss: Samples): Double = {
    require(ss.nonEmpty, "need samples")
    var sxy = 0.0; var sxx = 0.0
    var i = 0
    while (i < ss.length) { sxy += ss(i).eta * ss(i).timeSec; sxx += ss(i).eta * ss(i).eta; i += 1 }
    if (sxx == 0) 0.0 else sxy / sxx
  }

  /** η₀ = b_f / (α_o − α_f); if on-demand is never steeper than full
    * (α_o ≤ α_f) on-demand wins at every η, so the threshold is +∞;
    * a non-positive b_f makes full load free, threshold 0.
    */
  def threshold(alphaF: Double, bF: Double, alphaO: Double): Double = {
    val denom = alphaO - alphaF
    if (denom <= 0) Double.PositiveInfinity
    else if (bF <= 0) 0.0
    else bF / denom
  }
}
