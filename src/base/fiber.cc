#include "src/base/fiber.h"

#include <cxxabi.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <system_error>
#include <utility>
#include <vector>

#include "src/base/log.h"

#if defined(__SANITIZE_ADDRESS__)
#include <dlfcn.h>
#include <gnu/lib-names.h>
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace malt {

namespace {

size_t PageBytes() {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

// --- sanitizer hooks: no-ops unless the build enables the sanitizer ---------

void AsanStartSwitch([[maybe_unused]] void** fake_stack_save,
                     [[maybe_unused]] const void* lo, [[maybe_unused]] size_t bytes) {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_start_switch_fiber(fake_stack_save, lo, bytes);
#endif
}

void AsanFinishSwitch([[maybe_unused]] void* fake_stack_save,
                      [[maybe_unused]] const void** old_lo,
                      [[maybe_unused]] size_t* old_bytes) {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(fake_stack_save, old_lo, old_bytes);
#endif
}

void TsanSwitchTo([[maybe_unused]] void* tsan_fiber) {
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(tsan_fiber, 0);
#endif
}

#if defined(__SANITIZE_ADDRESS__)
// ASan's swapcontext interceptor predates the fiber annotations above: it
// warns that it does not fully support swapcontext and clears the shadow of
// the whole target stack on every switch. The annotations already tell ASan
// which stack runs, so switch through glibc's own entry point instead.
using SwapFn = int (*)(ucontext_t*, const ucontext_t*);
SwapFn LibcSwapcontext() {
  static const SwapFn fn = [] {
    void* libc = dlopen(LIBC_SO, RTLD_LAZY | RTLD_NOLOAD);
    void* sym = libc != nullptr ? dlsym(libc, "swapcontext") : nullptr;
    MALT_CHECK(sym != nullptr) << "glibc swapcontext not found";
    return reinterpret_cast<SwapFn>(sym);
  }();
  return fn;
}
#endif

void Swap(ucontext_t* from, const ucontext_t* to) {
#if defined(__SANITIZE_ADDRESS__)
  const int rc = LibcSwapcontext()(from, to);
#else
  const int rc = swapcontext(from, to);
#endif
  MALT_CHECK(rc == 0) << "swapcontext: " << std::system_category().message(errno);
}

size_t MappingBytes() { return PageBytes() + Fiber::kStackBytes; }

// Stacks of destroyed fibers, kept for the next fibers created on the same
// thread. An engine run, and each model-checker execution, creates one fiber
// per process; a fresh stack (mmap, mprotect, munmap and first-touch page
// faults) costs about as much as ten switches.
class StackPool {
 public:
  StackPool() = default;
  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;
  ~StackPool() {
    for (void* mapping : free_) {
      munmap(mapping, MappingBytes());
    }
  }

  // Returns a mapping: one PROT_NONE guard page, then kStackBytes of stack.
  void* Take() {
    if (!free_.empty()) {
      void* mapping = free_.back();
      free_.pop_back();
      return mapping;
    }
    void* mapping = mmap(nullptr, MappingBytes(), PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
    MALT_CHECK(mapping != MAP_FAILED) << "fiber stack mmap: " << std::system_category().message(errno);
    MALT_CHECK(mprotect(mapping, PageBytes(), PROT_NONE) == 0)
        << "fiber guard page mprotect: " << std::system_category().message(errno);
    return mapping;
  }

  void Give(void* mapping) {
    if (free_.size() < kMaxFree) {
      free_.push_back(mapping);
    } else {
      munmap(mapping, MappingBytes());
    }
  }

 private:
  static constexpr size_t kMaxFree = 64;
  std::vector<void*> free_;
};

thread_local StackPool t_stacks;

}  // namespace

// The running context's exception state: __cxa_get_globals() returns the
// thread's __cxa_eh_globals, which starts with {caughtExceptions,
// uncaughtExceptions} in the Itanium C++ ABI.
Fiber::EhState* Fiber::CurrentEh() {
  return reinterpret_cast<EhState*>(abi::__cxa_get_globals());
}

Fiber::Fiber(std::function<void()> body) : body_(std::move(body)) {
  mapping_ = t_stacks.Take();
  stack_lo_ = static_cast<char*>(mapping_) + PageBytes();

  MALT_CHECK(getcontext(&ctx_) == 0) << "getcontext: " << std::system_category().message(errno);
  ctx_.uc_stack.ss_sp = stack_lo_;
  ctx_.uc_stack.ss_size = kStackBytes;
  ctx_.uc_link = nullptr;  // Main() never returns; it switches out for good
  // makecontext passes int arguments only: split the pointer in two.
  const auto self = reinterpret_cast<uintptr_t>(this);
  makecontext(&ctx_, reinterpret_cast<void (*)()>(&Fiber::Entry), 2,
              static_cast<unsigned int>(self >> 32), static_cast<unsigned int>(self));
#if defined(__SANITIZE_THREAD__)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
  MALT_CHECK(!started_ || finished_) << "fiber destroyed while suspended mid-body";
#if defined(__SANITIZE_THREAD__)
  __tsan_destroy_fiber(tsan_fiber_);
#endif
#if defined(__SANITIZE_ADDRESS__)
  // Frames that lived on this stack left poisoned shadow behind; the next
  // fiber on it must not inherit that.
  ASAN_UNPOISON_MEMORY_REGION(stack_lo_, kStackBytes);
#endif
  t_stacks.Give(mapping_);
}

void Fiber::Entry(unsigned int hi, unsigned int lo) {
  reinterpret_cast<Fiber*>((uintptr_t{hi} << 32) | lo)->Main();
}

// An exception escaping the body terminates here, as one escaping a
// std::thread body does.
void Fiber::Main() noexcept {  // NOLINT(bugprone-exception-escape)
  AsanFinishSwitch(nullptr, &caller_stack_lo_, &caller_stack_bytes_);
  body_();
  finished_ = true;
  running_ = false;
  // Leave for good: the fiber's exception state is empty now, and a null
  // fake-stack slot tells ASan to free this fiber's fake stack.
  *CurrentEh() = caller_eh_;
  AsanStartSwitch(nullptr, caller_stack_lo_, caller_stack_bytes_);
  TsanSwitchTo(tsan_caller_);
  Swap(&ctx_, &caller_ctx_);
  std::abort();  // a finished fiber is never resumed
}

void Fiber::Resume() {
  MALT_CHECK(!running_ && !finished_) << "Resume of a running or finished fiber";
  started_ = true;
  running_ = true;
  EhState* eh = CurrentEh();
  caller_eh_ = *eh;
  *eh = fiber_eh_;
#if defined(__SANITIZE_THREAD__)
  tsan_caller_ = __tsan_get_current_fiber();
#endif
  AsanStartSwitch(&caller_fake_stack_, stack_lo_, kStackBytes);
  TsanSwitchTo(tsan_fiber_);
  Swap(&caller_ctx_, &ctx_);
  AsanFinishSwitch(caller_fake_stack_, nullptr, nullptr);
}

void Fiber::Suspend() {
  MALT_CHECK(running_) << "Suspend outside the fiber";
  running_ = false;
  EhState* eh = CurrentEh();
  fiber_eh_ = *eh;
  *eh = caller_eh_;
  AsanStartSwitch(&fiber_fake_stack_, caller_stack_lo_, caller_stack_bytes_);
  TsanSwitchTo(tsan_caller_);
  Swap(&ctx_, &caller_ctx_);
  AsanFinishSwitch(fiber_fake_stack_, &caller_stack_lo_, &caller_stack_bytes_);
}

}  // namespace malt
