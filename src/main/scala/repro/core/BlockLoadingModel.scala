package repro.core

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import repro.disk.DiskSim
import repro.engine.WalkBuffer
import repro.graph.BlockedGraph

/** Block loading (§5): the full-load and on-demand-load methods, and the
  * learning-based model that picks between them.
  */
object BlockLoading {

  /** How a block is brought into memory. */
  sealed trait Mode
  case object Full extends Mode
  case object OnDemand extends Mode

  /** Resident-data view of one loaded block. Under on-demand load, only the
    * activated vertices' CSR segmentations are resident; touching a missing
    * vertex during execution incurs the "few random vertex I/Os" of §5.1.
    */
  final class BlockAccess private[BlockLoading] (
      bg: BlockedGraph, val block: Int, val mode: Mode,
      loaded: java.util.BitSet, sim: DiskSim) {

    /** Ensure vertex `v` (must belong to this block) is resident. */
    def touch(v: Int): Unit = mode match {
      case Full => ()
      case OnDemand =>
        val off = v - bg.blockStart(block)
        if (!loaded.get(off)) { sim.readVertices(1); loaded.set(off) }
    }
  }

  /** Load block `b` with the given mode, charging `sim`.
    *
    * @param walks  the walk set W whose activated vertices drive on-demand
    *               loading (their pre/cur vertices inside `b`); ignored for
    *               full load
    */
  def load(bg: BlockedGraph, b: Int, mode: Mode, walks: WalkBuffer,
           sim: DiskSim): BlockAccess = mode match {
    case Full =>
      sim.readBlock(bg.blockOffset(b), bg.blockBytes(b))
      new BlockAccess(bg, b, Full, null, sim)
    case OnDemand =>
      // Tally activated vertices (Vertex Map of Fig. 5), then load only
      // their CSR segmentations as light I/Os.
      val bits = new java.util.BitSet(bg.verticesInBlock(b))
      var n = 0L
      var k = 0
      while (k < walks.length) {
        val cur = walks.cur(k)
        if (bg.blockOf(cur) == b) {
          val off = cur - bg.blockStart(b)
          if (!bits.get(off)) { bits.set(off); n += 1 }
        }
        val prev = walks.prev(k)
        if (prev >= 0 && bg.blockOf(prev) == b) {
          val off = prev - bg.blockStart(b)
          if (!bits.get(off)) { bits.set(off); n += 1 }
        }
        k += 1
      }
      if (n > 0) sim.readVertices(n)
      new BlockAccess(bg, b, OnDemand, bits, sim)
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

/** Ordinary least squares on one predictor, with or without intercept. */
object Regression {
  final case class Fit(slope: Double, intercept: Double) {
    def predict(x: Double): Double = slope * x + intercept
  }

  def fit(xs: ArrayBuffer[Double], ys: ArrayBuffer[Double], withIntercept: Boolean): Fit = {
    require(xs.length == ys.length && xs.nonEmpty, "need aligned, non-empty samples")
    if (!withIntercept) {
      var sxy = 0.0; var sxx = 0.0
      var i = 0
      while (i < xs.length) { sxy += xs(i) * ys(i); sxx += xs(i) * xs(i); i += 1 }
      Fit(if (sxx == 0) 0.0 else sxy / sxx, 0.0)
    } else {
      val n = xs.length
      var sx = 0.0; var sy = 0.0
      var i = 0
      while (i < n) { sx += xs(i); sy += ys(i); i += 1 }
      val mx = sx / n; val my = sy / n
      var sxy = 0.0; var sxx = 0.0
      i = 0
      while (i < n) { sxy += (xs(i) - mx) * (ys(i) - my); sxx += (xs(i) - mx) * (xs(i) - mx); i += 1 }
      val slope = if (sxx == 0) 0.0 else sxy / sxx
      Fit(slope, my - slope * mx)
    }
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
    def byBlock(log: LoadLogCollector): Map[Int, ArrayBuffer[(Double, Double)]] = {
      val m = mutable.Map.empty[Int, ArrayBuffer[(Double, Double)]]
      log.samples.foreach(s => m.getOrElseUpdate(s.block, new ArrayBuffer) += ((s.eta, s.timeSec)))
      m.toMap
    }
    val fullBy = byBlock(fullLog)
    val odBy   = byBlock(onDemandLog)

    // §5.2.1: the t_o–η model is linear only for η < η₀ (above it, the
    // activated set saturates at the block size). Since η₀ is what we are
    // solving for, fit iteratively: start from all samples, then refit the
    // on-demand model on the sub-threshold region until stable.
    def fitPair(full: ArrayBuffer[(Double, Double)], od: ArrayBuffer[(Double, Double)]): Option[Double] = {
      if (full.length < 2 || od.isEmpty) None
      else {
        val ff = Regression.fit(full.map(_._1), full.map(_._2), withIntercept = true)
        var cap = Double.PositiveInfinity
        var eta0 = Double.PositiveInfinity
        var iter = 0
        while (iter < 4) {
          val sub = od.filter(_._1 <= cap)
          if (sub.isEmpty) iter = 4 // keep the last stable estimate
          else {
            val fo = Regression.fit(sub.map(_._1), sub.map(_._2), withIntercept = false)
            eta0 = threshold(ff, fo)
            cap = eta0
            iter += 1
          }
        }
        Some(eta0)
      }
    }

    val pooledFull = new ArrayBuffer[(Double, Double)]
    fullLog.samples.foreach(s => pooledFull += ((s.eta, s.timeSec)))
    val pooledOd = new ArrayBuffer[(Double, Double)]
    onDemandLog.samples.foreach(s => pooledOd += ((s.eta, s.timeSec)))
    val pooledEta = fitPair(pooledFull, pooledOd).getOrElse(0.0)

    val thresholds = Array.tabulate(nBlocks) { b =>
      val enough = fullBy.get(b).exists(_.length >= MinSamplesPerBlock) &&
                   odBy.get(b).exists(_.length >= MinSamplesPerBlock)
      if (enough) fitPair(fullBy(b), odBy(b)).getOrElse(pooledEta) else pooledEta
    }
    new BlockLoading.Learned(thresholds)
  }

  /** η₀ = b_f / (α_o − α_f); if on-demand is never steeper than full
    * (α_o ≤ α_f) on-demand wins at every η, so the threshold is +∞;
    * a non-positive b_f makes full load free, threshold 0.
    */
  def threshold(full: Regression.Fit, onDemand: Regression.Fit): Double = {
    val denom = onDemand.slope - full.slope
    if (denom <= 0) Double.PositiveInfinity
    else if (full.intercept <= 0) 0.0
    else full.intercept / denom
  }
}
