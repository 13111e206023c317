package repro.disk

/** SSD-like cost model. All engines are charged through these unit costs so
  * comparisons are apples-to-apples; the defaults are calibrated once against
  * the magnitudes of the paper's Table 3 (see DESIGN.md "Scale bridging") and
  * then held fixed for every experiment.
  *
  * @param seqSeekSec        setup latency of a sequential block read
  * @param randSeekSec       setup latency of a random (repositioning) block read
  * @param bytesPerSec       sequential bandwidth
  * @param vertexIOSec       amortized cost of one light random vertex read
  *                          (72-thread NVMe queue-depth amortization folded in)
  * @param stepBaseSec       amortized execution cost of sampling one walk step
  * @param stepPerNeighborSec extra execution cost per candidate neighbor
  *                          weighted during a second-order step
  * @param walkBytes         bytes per persisted walk (128-bit encoding, §6.1)
  */
final case class CostModel(
    seqSeekSec: Double = 0.1e-3,
    randSeekSec: Double = 0.8e-3,
    bytesPerSec: Double = 2.0e9,
    vertexIOSec: Double = 3.0e-6,
    stepBaseSec: Double = 25e-9,
    stepPerNeighborSec: Double = 0.1e-9,
    walkBytes: Long = 16L,
)

object CostModel {
  /** The calibrated default used by all benchmarks. */
  val paperSsd: CostModel = CostModel()
}

/** Accounting for a single engine run.
  *
  * The simulator keeps only integer event *counts*: the real, emergent
  * outputs of the algorithms (block reads and their bytes, vertex reads,
  * walk bytes, steps and neighbour work, cache scans, slots, supersteps).
  * Event *times* are priced from those counts in one place,
  * [[DiskSim.Metrics]], as `count x unit cost`, optionally bridged to the
  * paper's scale:
  *
  *   - `byteScale` multiplies byte-proportional costs (block and walk I/O)
  *     so a lite block is charged like its paper-sized counterpart;
  *   - `walkScale` multiplies per-walk/per-step-proportional costs (vertex
  *     I/Os, walk loads, execution) so the lite workload is charged like the
  *     paper's walk count x length.
  *
  * A modeled time is therefore a pure function of the counts: it does not
  * depend on the order in which an engine makes its charges.
  *
  * Sequential vs. random block reads are detected from the simulated disk
  * head position: a read starting where the previous one ended is sequential
  * (this is exactly why the triangular schedule's ascending ancillary loads
  * are cheap, §7.3 "Block-I/O comparison").
  */
final class DiskSim(
    val cost: CostModel = CostModel.paperSsd,
    val byteScale: Double = 1.0,
    val walkScale: Double = 1.0,
) {
  private var headPos: Long = Long.MinValue

  var blockIOCount: Long = 0
  var blockIOSeqCount: Long = 0
  var blockIOBytes: Long = 0
  var vertexIOCount: Long = 0
  var walkIOBytes: Long = 0
  var steps: Long = 0
  var neighborWork: Long = 0
  var cacheInitCount: Long = 0
  var cacheInitBytes: Long = 0
  var timeSlots: Long = 0
  var supersteps: Long = 0

  /** Lane jobs the run's `Walker` made, and the real nanoseconds its caller
    * waited for the other lanes after its own chunks. Real-machine counts,
    * neither priced nor in `Metrics`, so a run's metrics do not depend on
    * real time.
    */
  var laneJobs: Long = 0
  var laneWaitNanos: Long = 0

  /** Charge a block read of `bytes` at disk offset `offset`. */
  def readBlock(offset: Long, bytes: Long): Unit = {
    if (offset == headPos) blockIOSeqCount += 1
    headPos = offset + bytes
    blockIOCount += 1
    blockIOBytes += bytes
  }

  /** Charge `n` light random vertex reads (CSR segmentations of single
    * vertices). These are latency-bound; bytes are negligible next to the
    * amortized seek, so the unit cost absorbs them.
    */
  def readVertices(n: Long): Unit = {
    vertexIOCount += n
    headPos = Long.MinValue // random reads lose sequential position
  }

  /** Charge persisting or loading `n` walks to/from a disk walk pool.
    * Walk-pool bytes are proportional to the walk count, so only the
    * workload bridge applies (byteScale would double-count the scale-up).
    */
  def walkIO(n: Long): Unit = walkIOBytes += n * cost.walkBytes

  /** Charge the sampling of `n` walk steps; `neighborWork` is the degree
    * sum of the current vertices of the second-order ones among them, the
    * per-neighbor weighting work of Node2vec.
    */
  def chargeSteps(n: Long, neighborWork: Long): Unit = {
    steps += n
    this.neighborWork += neighborWork
  }

  /** One-off sequential scan (SGSC static-cache initialization, §7.1). */
  def chargeCacheInit(totalBytes: Long): Unit = {
    cacheInitCount += 1
    cacheInitBytes += totalBytes
    headPos = Long.MinValue
  }

  def blockIOTimeSec: Double = snapshot.blockIOTimeSec
  def vertexIOTimeSec: Double = snapshot.vertexIOTimeSec
  def walkIOTimeSec: Double = snapshot.walkIOTimeSec
  def execTimeSec: Double = snapshot.execTimeSec
  def wallTimeSec: Double = snapshot.wallTimeSec

  def snapshot: DiskSim.Metrics = DiskSim.Metrics(cost, byteScale, walkScale,
    blockIOCount, blockIOSeqCount, blockIOBytes, vertexIOCount, walkIOBytes, steps, neighborWork,
    cacheInitCount, cacheInitBytes, timeSlots, supersteps)
}

object DiskSim {
  /** Immutable record of a run: every count, and the cost model and scales
    * that price them. Its time members are the only place the unit costs
    * of `CostModel` are read; `DiskSim`'s live time getters go through it.
    */
  final case class Metrics(
      cost: CostModel,
      byteScale: Double,
      walkScale: Double,
      blockIOCount: Long,
      blockIOSeqCount: Long,
      blockIOBytes: Long,
      vertexIOCount: Long,
      walkIOBytes: Long,
      steps: Long,
      neighborWork: Long,
      cacheInitCount: Long,
      cacheInitBytes: Long,
      timeSlots: Long,
      supersteps: Long,
  ) {
    private def transferSec(bytes: Long, scale: Double): Double = bytes * scale / cost.bytesPerSec

    def blockIOTimeSec: Double =
      blockIOSeqCount * cost.seqSeekSec + (blockIOCount - blockIOSeqCount) * cost.randSeekSec +
        transferSec(blockIOBytes, byteScale)
    def vertexIOTimeSec: Double = vertexIOCount * cost.vertexIOSec * walkScale
    def walkIOTimeSec: Double = transferSec(walkIOBytes, walkScale)
    def execTimeSec: Double =
      (steps * cost.stepBaseSec + neighborWork * cost.stepPerNeighborSec) * walkScale
    /** A cache scan starts with a random seek, then reads sequentially. */
    def cacheInitTimeSec: Double =
      cacheInitCount * cost.randSeekSec + transferSec(cacheInitBytes, byteScale)
    def ioTimeSec: Double = blockIOTimeSec + vertexIOTimeSec + walkIOTimeSec + cacheInitTimeSec
    def wallTimeSec: Double = ioTimeSec + execTimeSec
  }
}
