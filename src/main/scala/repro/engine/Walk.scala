package repro.engine

import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}
import scala.collection.mutable.ArrayBuffer
import repro.disk.DiskSim
import repro.graph.BlockedGraph
import repro.walk.WalkTask

/** A growable buffer of walks, each a packed 128-bit record (§6.1) in two
  * consecutive words of one `Array[Long]`:
  *
  *   word 0 = | walk id (40) | hop (24) |
  *   word 1 = | previous vertex (32) | current vertex (32) |
  *
  * `hop` counts completed steps; `prev == -1` until the first step (the
  * first transition of every model is first-order, §2.1). A record is the
  * 16 bytes per walk that the engines charge on every pool read/write
  * (`CostModel.walkBytes`). Buffers are cleared and refilled, never shrunk,
  * so an engine's pools and buckets stop allocating once they have grown to
  * their peak size. A buffer holds at most `MaxRecords` records.
  */
final class WalkBuffer {
  import WalkBuffer._

  private var words = new Array[Long](2 * InitialWalks)
  private var n = 0
  private var lowestHop = Int.MaxValue

  def length: Int = n
  def isEmpty: Boolean = n == 0
  def nonEmpty: Boolean = n != 0

  @inline def id(k: Int): Long = words(2 * k) >>> HopBits
  @inline def hop(k: Int): Int = (words(2 * k) & HopMask).toInt
  @inline def prev(k: Int): Int = (words(2 * k + 1) >> 32).toInt
  @inline def cur(k: Int): Int = words(2 * k + 1).toInt

  /** Whether record `k`'s walk ended in the last `Walker.advanceAll`. */
  @inline def ended(k: Int): Boolean = words(2 * k + 1) == Ended

  /** Hand every record whose walk did not end in the last sweep to `to`, in
    * record order.
    */
  def persistSurvivors(to: WalkBuffer.Persist): Unit = {
    var k = 0
    while (k < n) {
      if (!ended(k)) to(this, k)
      k += 1
    }
  }

  /** Smallest hop among the records appended since the last `clear`
    * (Int.MaxValue when none). `update` does not lower it, so it is exact
    * for a buffer that is only appended to and cleared whole — a pool.
    */
  def minHop: Int = lowestHop

  def add(id: Long, hop: Int, prev: Int, cur: Int): Unit =
    append(pack0(id, hop), pack1(prev, cur))

  /** Append a copy of record `k` of `from`. */
  def addFrom(from: WalkBuffer, k: Int): Unit =
    append(from.words(2 * k), from.words(2 * k + 1))

  /** Overwrite the hop and vertices of record `k`, keeping its id. */
  def update(k: Int, hop: Int, prev: Int, cur: Int): Unit = {
    words(2 * k) = pack0(id(k), hop)
    words(2 * k + 1) = pack1(prev, cur)
  }

  /** Mark record `k`'s walk as ended, keeping its id. */
  private[engine] def end(k: Int): Unit = words(2 * k + 1) = Ended

  def clear(): Unit = { n = 0; lowestHop = Int.MaxValue }

  private def append(w0: Long, w1: Long): Unit = {
    if (2 * n == words.length) words = java.util.Arrays.copyOf(words, grown(words.length))
    words(2 * n) = w0
    words(2 * n + 1) = w1
    n += 1
    val h = (w0 & HopMask).toInt
    if (h < lowestHop) lowestHop = h
  }
}

object WalkBuffer {
  /** Where a surviving walk goes: record `k` of `walks`, valid during the call. */
  trait Persist { def apply(walks: WalkBuffer, k: Int): Unit }

  private final val HopBits = 24
  private final val HopMask = (1L << HopBits) - 1
  private final val InitialWalks = 16

  /** Walk ids are 40 bits: at most 2^40 walks per task. */
  final val MaxWalks: Long = 1L << (64 - HopBits)

  /** Hops are 24 bits: `maxLen` must stay below 2^24. */
  final val MaxLen: Int = 1 << HopBits

  /** Records a buffer can hold: their words fill an array of 2^30 longs,
    * and doubling it once more overflows `Int`.
    */
  final val MaxRecords: Int = 1 << 29

  // prev = cur = -1: no vertex, so no live record has it.
  private final val Ended = -1L

  /** The word count a full buffer of `words` words grows to. */
  private[engine] def grown(words: Int): Int = {
    require(words < 2 * MaxRecords, s"a walk buffer holds at most $MaxRecords records")
    2 * words
  }

  @inline private def pack0(id: Long, hop: Int): Long = id << HopBits | hop
  @inline private def pack1(prev: Int, cur: Int): Long = prev.toLong << 32 | (cur & 0xffffffffL)
}

/** Per-block walk pools ("walk pool" + disk walk storage of §3). The
  * association rule (traditional = current block; skewed = min(pre, cur)
  * block) is the caller's responsibility. Scheduling strategies read the
  * pools' sizes and each pool's `minHop` (exact, as pools are only appended
  * to and drained whole).
  */
final class WalkPools(val nBlocks: Int) {
  private val pools = Array.fill(nBlocks)(new WalkBuffer)
  // The buffer the last `drain` returned; the next `drain` recycles it.
  private var drained = new WalkBuffer

  def pool(b: Int): WalkBuffer = pools(b)

  /** Append a copy of record `k` of `from` to pool `b`. */
  def add(b: Int, from: WalkBuffer, k: Int): Unit = pools(b).addFrom(from, k)

  def isEmpty: Boolean = pools.forall(_.isEmpty)

  def size(b: Int): Int = pools(b).length

  /** Remove and return the walks of pool `b`, leaving it empty. The
    * returned buffer is valid until the next `drain`, which clears it and
    * puts it back as an empty pool.
    */
  def drain(b: Int): WalkBuffer = {
    val out = pools(b)
    drained.clear()
    pools(b) = drained
    drained = out
    out
  }
}

/** The walk corpus: the full trajectory of every walk of a task, the output
  * of RWNV and DeepWalk (§7.1). Pass one to `WalkEngine.run`.
  *
  * During the run `start`/`step` append one word `id << 32 | vertex` to an
  * append-only log kept in fixed-size chunks, so nothing is boxed or copied
  * per step; after each sweep `Walker` appends the words its lanes logged as
  * segments of their own arrays, which the collector keeps uncopied. `seal`
  * (called by `Walker.finish` before `run` returns) sorts the log, segment
  * after segment, by walk id with one stable counting sort into a walk-major
  * corpus: walk `w` is `vertices(offsets(w) until offsets(w + 1))`. A walk's
  * vertices are logged in time order, so the sort keeps them in hop order.
  * Reading the corpus before `seal`, or appending after it, throws
  * IllegalStateException.
  */
final class TraceCollector(val nWalks: Int) {
  import TraceCollector._
  require(nWalks >= 0, s"a corpus of $nWalks walks")

  // The log: segment s is segWords(s)(segFrom(s) until segTo(s)).
  private var segWords = new Array[Array[Long]](16)
  private var segFrom = new Array[Int](16)
  private var segTo = new Array[Int](16)
  private var nSegs = 0
  private var logged = 0L // words in segments

  // The collector's own chunk: `start`/`step` write at `pos`; its words from
  // `open` on are not in a segment yet. ChunkSize forces a new chunk (or the
  // sealed check).
  private var chunk: Array[Long] = null
  private var open = ChunkSize
  private var pos = ChunkSize

  private var offsets: Array[Int] = null
  private var vertices: Array[Int] = null

  def start(id: Long, src: Int): Unit = append(id, src)
  def step(id: Long, v: Int): Unit = append(id, v)

  @inline private def append(id: Long, v: Int): Unit = {
    if (pos == ChunkSize) nextChunk()
    chunk(pos) = word(id, v)
    pos += 1
  }

  /** Append `words(from until to)`, each `word(id, vertex)`, to the log
    * without copying them: the caller must not rewrite them.
    */
  private[engine] def appendSegment(words: Array[Long], from: Int, to: Int): Unit = {
    closeOwn()
    addSegment(words, from, to)
  }

  private def closeOwn(): Unit = {
    if (pos > open) addSegment(chunk, open, pos)
    open = pos
  }

  private def addSegment(words: Array[Long], from: Int, to: Int): Unit = {
    if (offsets != null) throw new IllegalStateException("the corpus is sealed: a TraceCollector records one run")
    if (to > from) {
      if (logged + (to - from) > MaxVertices)
        throw new IllegalStateException(s"a corpus holds at most $MaxVertices vertices")
      if (nSegs == segWords.length) {
        segWords = java.util.Arrays.copyOf(segWords, 2 * nSegs)
        segFrom = java.util.Arrays.copyOf(segFrom, 2 * nSegs)
        segTo = java.util.Arrays.copyOf(segTo, 2 * nSegs)
      }
      segWords(nSegs) = words
      segFrom(nSegs) = from
      segTo(nSegs) = to
      nSegs += 1
      logged += to - from
    }
  }

  private def nextChunk(): Unit = {
    closeOwn()
    if (offsets != null) throw new IllegalStateException("the corpus is sealed: a TraceCollector records one run")
    chunk = new Array[Long](ChunkSize)
    open = 0
    pos = 0
  }

  /** Sort the log into the walk-major corpus and drop it. Idempotent. */
  private[engine] def seal(): Unit = if (offsets == null) {
    closeOwn()
    val off = new Array[Int](nWalks + 1)
    var s = 0
    while (s < nSegs) {
      val words = segWords(s)
      var k = segFrom(s)
      while (k < segTo(s)) {
        val id = (words(k) >>> 32).toInt
        if (id < 0 || id >= nWalks) throw new IllegalStateException(s"walk $id logged in a corpus of $nWalks walks")
        off(id + 1) += 1
        k += 1
      }
      s += 1
    }
    var w = 0
    while (w < nWalks) { off(w + 1) += off(w); w += 1 }
    // Scatter with off(w) as walk w's cursor; it ends at walk w + 1's start.
    val vs = new Array[Int](logged.toInt)
    s = 0
    while (s < nSegs) {
      val words = segWords(s)
      var k = segFrom(s)
      while (k < segTo(s)) {
        val id = (words(k) >>> 32).toInt
        vs(off(id)) = words(k).toInt
        off(id) += 1
        k += 1
      }
      s += 1
    }
    System.arraycopy(off, 0, off, 1, nWalks)
    off(0) = 0
    segWords = null
    segFrom = null
    segTo = null
    chunk = null
    open = ChunkSize
    pos = ChunkSize
    vertices = vs
    offsets = off
  }

  private def corpus: Array[Int] = {
    if (offsets == null) throw new IllegalStateException("the corpus is read before the run sealed it")
    offsets
  }

  /** Number of vertices of walk `w`: its start plus one per step. */
  def length(w: Int): Int = { val o = corpus; o(w + 1) - o(w) }

  /** Vertex of walk `w` after `h` steps. */
  def vertex(w: Int, h: Int): Int = {
    val o = corpus
    if (h < 0 || h >= o(w + 1) - o(w)) throw new IndexOutOfBoundsException(s"hop $h of walk $w")
    vertices(o(w) + h)
  }

  /** A copy of walk `w`'s trajectory. */
  def path(w: Int): Array[Int] = { val o = corpus; java.util.Arrays.copyOfRange(vertices, o(w), o(w + 1)) }

  /** The corpus as one boxed buffer per walk, built on first read; not to be
    * modified. Kept for readers of the boxed form; prefer `path`/`vertex`.
    */
  lazy val paths: Array[ArrayBuffer[Int]] = Array.tabulate(nWalks) { w =>
    val o = corpus
    val b = new ArrayBuffer[Int](o(w + 1) - o(w))
    var i = o(w)
    while (i < o(w + 1)) { b += vertices(i); i += 1 }
    b
  }
}

object TraceCollector {
  private[engine] final val ChunkSize = 1 << 13

  /** The log word of walk `id` at vertex `v`. */
  @inline private[engine] def word(id: Long, v: Int): Long = id << 32 | (v & 0xffffffffL)

  /** Vertices a corpus can hold: at most an `Array[Int]`'s length. */
  private final val MaxVertices: Int = Int.MaxValue / ChunkSize * ChunkSize
}

/** The one walk-step kernel: every engine starts and advances walks through
  * it, so trajectories are engine-independent (deterministic counter RNG)
  * and execution cost, visits and traces are recorded uniformly. Walks are
  * records of a [[WalkBuffer]]; the task must fit its id and hop fields, and
  * a corpus, if given, must hold every walk. Engines return `finish()`.
  *
  * `advanceAll` sweeps the walks of one time slot on every [[Lanes]] lane,
  * each walk in a bucket (see `Fixed`, `Pairs`, `Extending`), and tallies
  * per bucket what the engine charges for it afterwards: arrivals, steps,
  * neighbour work, survivors and, when asked, the vertices of the bucket's
  * block that a walk activated on arrival or stepped from. Each walk is a
  * pure function of (task seed, walk id, hop), so which lane takes it cannot
  * change it. Lanes count, log and mark into their own state, merged in
  * lane order: tallies and trace logs after each sweep, visit counts in
  * `finish`. Sums and a set union do not depend on the lane or order a walk
  * had, and a walk sits in one lane per sweep, so its logged steps stay in
  * hop order: every count, corpus and visit vector is the one a single
  * thread gives. Lane state is allocated once per run.
  */
final class Walker(val bg: BlockedGraph, val task: WalkTask, val sim: DiskSim,
                   visits: Array[Long], trace: TraceCollector) {
  import Walker._
  require(task.totalWalks <= WalkBuffer.MaxWalks,
    s"${task.totalWalks} walks exceed the ${WalkBuffer.MaxWalks} a walk record can number")
  require(task.maxLen < WalkBuffer.MaxLen,
    s"maxLen ${task.maxLen} does not fit a walk record's hop field (< ${WalkBuffer.MaxLen})")
  require(trace == null || trace.nWalks >= task.totalWalks,
    s"a corpus of ${trace.nWalks} walks cannot hold the task's ${task.totalWalks}")

  private val g = bg.g
  private val model = task.model
  private val secondOrder = model.isSecondOrder
  private val nB = bg.nBlocks

  /** What one lane recorded in the open sweep. */
  private final class Lane(var visits: Array[Long]) {
    val counts = new Array[Long](Fields * nB) // per bucket, see `Fields`
    var marks: Array[Long] = null // a bit per vertex
    // Trace words: `log` is written at `logged`, and its words from `logFrom`
    // on, with the logs `filled` before it in the open sweep, are not in the
    // corpus yet.
    var log: Array[Long] = null
    var logFrom = 0
    var logged = 0
    val filled = new ArrayBuffer[Array[Long]]

    /** Start a new log, twice the last one's size up to a chunk's. */
    def nextLog(): Unit = {
      log = if (log == null) new Array[Long](LogWords) else {
        filled += log
        new Array[Long](math.min(2 * log.length, TraceCollector.ChunkSize))
      }
      logged = 0
    }
  }
  private val lanes = Array.tabulate(Lanes.count)(l => new Lane(if (l == 0) visits else null))
  // The last sweep's counts, summed over lanes.
  private val total = new Array[Long](Fields * nB)

  // The open sweep. The caller writes it before `unclaimed` opens the
  // chunks; a lane reads it only after claiming one, and the caller moves on
  // only once every chunk is `completed`.
  private var sweepWalks: WalkBuffer = _
  private var sweepBlock = 0
  private var sweepRule = Fixed
  private var sweepMarks = false
  private val unclaimed = new AtomicInteger
  private val completed = new AtomicInteger
  private val failure = new AtomicReference[Throwable]

  /** Append walk `id` at `src` to `into` and record its first vertex. */
  def start(id: Long, src: Int, into: WalkBuffer): Unit = {
    if (visits != null) visits(src) += 1
    if (trace != null) trace.start(id, src)
    into.add(id, 0, -1, src)
  }

  /** Step every record of `walks` in place, in the time slot whose current
    * block is `b`, while its current block is `b` or its bucket's block
    * (bucket rule `rule`). A record is left at the step where its walk left
    * memory, or marked `ended` once the walk ended (stuck on a dangling
    * vertex, or stopped by the task). With `marks`, `touched` counts the
    * vertices each bucket activated or stepped from. A sweep of at least
    * `ParallelMin` records runs on every lane unless another sweep holds
    * them; a smaller one runs the same chunk loop on the caller alone. An
    * exception thrown in a lane is rethrown here, after the sweep.
    */
  def advanceAll(walks: WalkBuffer, b: Int, rule: Int, marks: Boolean): Unit = {
    val chunks = (walks.length + Chunk - 1) / Chunk
    sweepWalks = walks
    sweepBlock = b
    sweepRule = rule
    sweepMarks = marks
    completed.set(0)
    unclaimed.set(chunks)
    val shared = walks.length >= ParallelMin && Lanes.acquire(this)
    runChunks(0)
    while (completed.get < chunks) Thread.onSpinWait()
    if (shared) Lanes.release()
    merge(marks)
    val e = failure.getAndSet(null)
    if (e != null) throw e
  }

  /** Walks that entered bucket `i` in the last sweep: those that started in
    * it and those bucket-extending moved into it.
    */
  def arrivals(i: Int): Int = total(Fields * i + Arrivals).toInt

  /** Walks of the last sweep that left memory from bucket `i`. */
  def survivors(i: Int): Int = total(Fields * i + Survivors).toInt

  /** Vertices of block `i` that a walk of bucket `i` activated (its
    * previous or current vertex on arrival) or stepped from in the last
    * sweep, if it marked them.
    */
  def touched(i: Int): Int = total(Fields * i + Touched).toInt

  /** Charge the steps and neighbour work of bucket `i` of the last sweep. */
  def chargeSteps(i: Int): Unit = sim.chargeSteps(total(Fields * i + Steps), total(Fields * i + Work))

  /** Advance chunks of the open sweep as lane `l` until none is left. */
  private[engine] def runChunks(l: Int): Unit = {
    var c = claim()
    while (c >= 0) {
      try sweepChunk(lanes(l), c)
      catch { case e: Throwable => failure.compareAndSet(null, e) }
      completed.incrementAndGet()
      c = claim()
    }
  }

  /** Claim an unclaimed chunk of the open sweep, or -1 if none is left. */
  private def claim(): Int = {
    var n = unclaimed.get
    while (n > 0 && !unclaimed.compareAndSet(n, n - 1)) n = unclaimed.get
    n - 1
  }

  private def sweepChunk(lane: Lane, c: Int): Unit = {
    val walks = sweepWalks
    val b = sweepBlock
    val rule = sweepRule
    if (sweepMarks && lane.marks == null) lane.marks = new Array[Long]((g.nV + 63) >>> 6)
    val marks = if (sweepMarks) lane.marks else null
    if (visits != null && lane.visits == null) lane.visits = new Array[Long](g.nV)
    val seen = lane.visits
    val counts = lane.counts
    var k = c * Chunk
    val end = math.min(walks.length, k + Chunk)
    while (k < end) {
      val id = walks.id(k)
      var prev = walks.prev(k)
      var cur = walks.cur(k)
      var hop = walks.hop(k)
      var cb = bg.blockOf(cur)
      var pb = if (rule == Fixed) b else bg.blockOf(prev)
      var i = if (rule == Fixed || pb != b) pb else cb
      var live = true
      var moving = true
      while (moving) {
        counts(Fields * i + Arrivals) += 1
        if (marks != null) {
          val lo = bg.blockStart(i)
          val hi = bg.blockStart(i + 1)
          if (prev >= lo && prev < hi) mark(marks, prev)
          if (cur >= lo && cur < hi) mark(marks, cur)
        }
        var steps = 0L
        var work = 0L
        while (live && (cb == b || cb == i)) {
          if (marks != null && cb == i) mark(marks, cur)
          steps += 1
          if (secondOrder && prev >= 0) work += g.degree(cur)
          val z = model.sampleNext(g, prev, cur, task.moveDraw(id, hop))
          if (z < 0) live = false
          else {
            prev = cur
            cur = z
            pb = cb
            cb = bg.blockOf(z)
            hop += 1
            if (seen != null) seen(z) += 1
            if (trace != null) {
              if (lane.log == null || lane.logged == lane.log.length) lane.nextLog()
              lane.log(lane.logged) = TraceCollector.word(id, z)
              lane.logged += 1
            }
            live = !task.stopsAfter(id, hop)
          }
        }
        counts(Fields * i + Steps) += steps
        counts(Fields * i + Work) += work
        // Bucket-extending (Alg. 2 l.14): a walk that stepped from b into a
        // block j beyond i goes on in bucket j.
        if (live && rule == Extending && pb == b && cb > i) i = cb
        else moving = false
      }
      if (live) {
        counts(Fields * i + Survivors) += 1
        walks.update(k, hop, prev, cur)
      } else walks.end(k)
      k += 1
    }
  }

  /** Sum the lanes' counts in lane order, count and clear the vertices they
    * marked in each bucket with arrivals, and hand the lanes' trace words to
    * the corpus.
    */
  private def merge(marked: Boolean): Unit = {
    var j = 0
    while (j < total.length) {
      var sum = 0L
      var l = 0
      while (l < lanes.length) { sum += lanes(l).counts(j); lanes(l).counts(j) = 0; l += 1 }
      total(j) = sum
      j += 1
    }
    var i = 0
    while (i < nB) {
      if (marked && arrivals(i) > 0)
        total(Fields * i + Touched) = takeMarks(bg.blockStart(i), bg.blockStart(i + 1))
      i += 1
    }
    if (trace != null) {
      var l = 0
      while (l < lanes.length) {
        val lane = lanes(l)
        var from = lane.logFrom
        var f = 0
        while (f < lane.filled.length) {
          trace.appendSegment(lane.filled(f), from, lane.filled(f).length)
          from = 0
          f += 1
        }
        lane.filled.clear()
        if (lane.log != null) trace.appendSegment(lane.log, from, lane.logged)
        lane.logFrom = lane.logged
        l += 1
      }
    }
  }

  /** Count the vertices in `lo until hi` that any lane marked, and unmark them. */
  private def takeMarks(lo: Int, hi: Int): Int = {
    var n = 0
    var w = lo >>> 6
    while (w << 6 < hi) {
      var bits = -1L
      if (w == lo >>> 6) bits &= -1L << lo
      if (w == (hi - 1) >>> 6) bits &= -1L >>> (63 - ((hi - 1) & 63))
      var x = 0L
      var l = 0
      while (l < lanes.length) {
        val m = lanes(l).marks
        if (m != null) { x |= m(w) & bits; m(w) &= ~bits }
        l += 1
      }
      n += java.lang.Long.bitCount(x)
      w += 1
    }
    n
  }

  /** End the run: add the lanes' visits, seal the corpus and return the
    * simulated metrics.
    */
  def finish(): DiskSim.Metrics = {
    Lanes.rest()
    var l = 1
    while (l < lanes.length) {
      val seen = lanes(l).visits
      if (seen != null) {
        var v = 0
        while (v < seen.length) { visits(v) += seen(v); v += 1 }
        lanes(l).visits = null
      }
      l += 1
    }
    if (trace != null) trace.seal()
    sim.snapshot
  }
}

object Walker {
  /** Bucket rule: every walk is in bucket `b` and steps while its current
    * block is `b` (Init, SOGW/SGSC, first-order).
    */
  final val Fixed = 0

  /** Bucket rule: a walk's bucket is the other block of its (previous,
    * current) pair (Eq. 4), and it steps while its current block is `b` or
    * that block (PB).
    */
  final val Pairs = 1

  /** `Pairs` with bucket-extending (Alg. 2 l.14): a walk that steps from `b`
    * into a block beyond its bucket's goes on in that block's bucket (the
    * bi-block engine).
    */
  final val Extending = 2

  // The counts of bucket i are counts(Fields * i + field).
  private final val Arrivals = 0
  private final val Steps = 1
  private final val Work = 2
  private final val Survivors = 3
  private final val Touched = 4 // summed only, set by `merge`
  private final val Fields = 5

  /** Records a lane claims at a time. */
  private final val Chunk = 12

  /** The smallest sweep worth waking the other lanes for. */
  private final val ParallelMin = 48

  /** A lane's first trace log. */
  private final val LogWords = 1 << 10

  @inline private def mark(marks: Array[Long], v: Int): Unit = marks(v >>> 6) |= 1L << v
}

/** Walk initialization (paper Appendix B): iterate the blocks once
  * sequentially; start each walk at its source and advance it until it
  * leaves its source block or terminates. Afterwards no live walk has its
  * previous and current vertex in the same block — the invariant both the
  * skewed storage and the asynchronous update rely on.
  */
object Init {

  /** Walks started per sweep, which bounds the start buffer on any task. */
  private final val Batch = 1 << 16

  /** Runs initialization, invoking `persist(walks, k)` for every surviving
    * walk (its current vertex is outside its source block), in walk id order.
    */
  def run(walker: Walker)(persist: WalkBuffer.Persist): Unit = {
    val bg = walker.bg
    val sim = walker.sim
    val starts = walker.task.starts
    // Walk IDs must be identical across engines: assign in (block, start)
    // order, by a stable counting sort of the starts with walks.
    val first = new Array[Int](bg.nBlocks + 1)
    var j = 0
    while (j < starts.length) {
      if (starts(j)._2 > 0) first(bg.blockOf(starts(j)._1) + 1) += 1
      j += 1
    }
    var c = 0
    while (c < bg.nBlocks) { first(c + 1) += first(c); c += 1 }
    val order = new Array[Int](first(bg.nBlocks))
    val next = java.util.Arrays.copyOf(first, bg.nBlocks)
    j = 0
    while (j < starts.length) {
      if (starts(j)._2 > 0) {
        val s = bg.blockOf(starts(j)._1)
        order(next(s)) = j
        next(s) += 1
      }
      j += 1
    }

    val fresh = new WalkBuffer
    var nextId = 0L
    for (b <- 0 until bg.nBlocks if first(b) < first(b + 1)) {
      sim.readBlock(bg.blockOffset(b), bg.blockBytes(b))
      sim.timeSlots += 1
      def sweep(): Unit = {
        walker.advanceAll(fresh, b, Walker.Fixed, marks = false)
        walker.chargeSteps(b)
        fresh.persistSurvivors(persist)
        fresh.clear()
      }
      var o = first(b)
      while (o < first(b + 1)) {
        val v = starts(order(o))._1
        val count = starts(order(o))._2
        var k = 0
        while (k < count) {
          walker.start(nextId, v, fresh)
          nextId += 1
          k += 1
          if (fresh.length == Batch) sweep()
        }
        o += 1
      }
      sweep()
    }
  }
}
