package repro.engine

import java.util.concurrent.atomic.AtomicBoolean
import java.util.concurrent.locks.LockSupport

/** The lanes a `Walker` lane job is spread over (the parallel walk update
  * of §6.3): one per available processor. Lane 0 is the thread that runs
  * the job (`advanceAll`, `advanceSuperstep` or `startAll`); lanes 1.. are
  * daemon workers, started on the first shared job. One job at a time holds
  * them; a job that finds them held runs on its own caller.
  *
  * A worker takes chunks of the job it was woken for until none is left,
  * so one that wakes late just takes fewer. Between jobs it spins for
  * `SpinNanos`, so the next job of a run finds it awake; after that, or
  * once a run finishes, it parks, and uses no CPU outside `WalkEngine.run`.
  */
private[engine] object Lanes {
  val count: Int = Runtime.getRuntime.availableProcessors

  private final val SpinNanos = 100000L

  private final class Worker(lane: Int) extends Thread(s"walk-lane-$lane") {
    @volatile var asleep = false
    setDaemon(true)

    override def run(): Unit = {
      var seen = 0L
      while (true) {
        val idle = System.nanoTime()
        while (posts == seen && !resting && System.nanoTime() - idle < SpinNanos) Thread.onSpinWait()
        while (posts == seen) {
          asleep = true
          if (posts == seen) LockSupport.park(this)
          asleep = false
        }
        seen = posts
        val w = job
        if (w != null) w.runChunks(lane)
      }
    }
  }

  private val held = new AtomicBoolean
  // Written only by the holder; `posts` counts the jobs posted to workers.
  @volatile private var job: Walker = null
  @volatile private var posts = 0L
  @volatile private var resting = true

  private lazy val workers: Array[Worker] = Array.tabulate(count - 1) { l =>
    val w = new Worker(l + 1)
    w.start()
    w
  }

  /** Take the lanes for `walker`'s open job and wake them, unless another
    * job holds them.
    */
  def acquire(walker: Walker): Boolean =
    count > 1 && held.compareAndSet(false, true) && {
      job = walker
      resting = false
      posts += 1
      var l = 0
      while (l < workers.length) {
        if (workers(l).asleep) LockSupport.unpark(workers(l))
        l += 1
      }
      true
    }

  /** Give the lanes back once the job's chunks are all done. */
  def release(): Unit = {
    job = null
    held.set(false)
  }

  /** A run finished: workers park instead of spinning. */
  def rest(): Unit = resting = true
}
