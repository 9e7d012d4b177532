#ifndef LEGO_CONCURRENCY_FIBER_H_
#define LEGO_CONCURRENCY_FIBER_H_

#include <ucontext.h>

#include <cstddef>
#include <vector>

namespace lego::concurrency {

/// Fiber stacks, mapped on first use and reused for every later case.
///
/// Each stack is kStackBytes (the default pthread stack size) of
/// MAP_NORESERVE anonymous memory above one PROT_NONE guard page, so an
/// overflow faults instead of running into the neighbouring mapping. Only
/// the pages a session actually touches become resident, and because the
/// mappings outlive the case, a campaign pays the mmap once per session
/// slot rather than once per test case.
class FiberStacks {
 public:
  static constexpr size_t kStackBytes = size_t{8} << 20;

  struct Stack {
    char* base = nullptr;  // lowest usable address (just above the guard)
    size_t size = 0;
  };

  FiberStacks() = default;
  ~FiberStacks();

  FiberStacks(const FiberStacks&) = delete;
  FiberStacks& operator=(const FiberStacks&) = delete;

  /// Stack number `i`, mapping it (and any below it) on first request.
  /// Aborts if the kernel refuses the mapping.
  Stack Get(size_t i);

 private:
  std::vector<char*> maps_;  // each: guard page + kStackBytes
};

/// A stackful coroutine run by a driver on the same thread.
///
/// The driver calls Resume(); the fiber runs until it calls Yield() (or its
/// entry function returns) and control comes back to the driver's Resume().
/// Switches go through glibc swapcontext and carry the AddressSanitizer
/// (`__sanitizer_start/finish_switch_fiber`) and ThreadSanitizer
/// (`__tsan_switch_to_fiber`) annotations, so both sanitizers follow the
/// stack changes. Exceptions must not escape the entry function.
class Fiber {
 public:
  using Entry = void (*)(void* arg);

  Fiber() = default;
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Prepares `entry(arg)` to run on `stack` from the next Resume(). The
  /// previous run, if any, must have finished.
  void Start(FiberStacks::Stack stack, Entry entry, void* arg);

  /// Driver side: runs the fiber until it yields or finishes.
  void Resume();

  /// Fiber side: switches back to the driver; returns at the next Resume().
  void Yield();

  bool finished() const { return finished_; }

 private:
  static void Trampoline(unsigned hi, unsigned lo);
  /// Runs on the fiber's stack after every switch into it.
  void Landed();

  ucontext_t self_{};
  ucontext_t driver_{};
  FiberStacks::Stack stack_;
  Entry entry_ = nullptr;
  void* arg_ = nullptr;
  bool finished_ = true;

  // Sanitizer bookkeeping; unused in plain builds.
  void* fake_stack_ = nullptr;  // the fiber's ASan fake stack while parked
  const void* driver_bottom_ = nullptr;
  size_t driver_size_ = 0;
  void* tsan_fiber_ = nullptr;
  void* tsan_driver_ = nullptr;
};

}  // namespace lego::concurrency

#endif  // LEGO_CONCURRENCY_FIBER_H_
