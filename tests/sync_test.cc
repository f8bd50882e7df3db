#include "support/sync.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace daspos {
namespace {

// The annotated primitives must behave exactly like the std types they
// wrap; these tests exercise the runtime semantics (the compile-time side
// is covered by the DASPOS_THREAD_SAFETY build and tests/compile_fail/).
// Run under TSan via tools/check.sh --tsan.

TEST(MutexTest, LockUnlockRoundTrip) {
  Mutex mu;
  mu.Lock();
  mu.Unlock();
  mu.Lock();
  mu.Unlock();
}

TEST(MutexTest, TryLockReportsContention) {
  Mutex mu;
  EXPECT_TRUE(mu.TryLock());
  // Non-recursive: a second TryLock from another thread must fail while
  // this thread holds the lock.
  bool second = true;
  std::thread prober([&] {
    second = mu.TryLock();
    if (second) mu.Unlock();
  });
  prober.join();
  EXPECT_FALSE(second);
  mu.Unlock();
  EXPECT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(MutexTest, GuardsCrossThreadIncrements) {
  Mutex mu;
  int counter = 0;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  MutexLock lock(mu);
  EXPECT_EQ(counter, kThreads * kPerThread);
}

TEST(MutexLockTest, ReleasesOnScopeExit) {
  Mutex mu;
  { MutexLock lock(mu); }
  // If the scoped lock leaked, this would deadlock.
  EXPECT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(ReleasableMutexLockTest, EarlyReleaseThenScopeExit) {
  Mutex mu;
  {
    ReleasableMutexLock lock(mu);
    lock.Release();
    // Released early: the mutex must be free while `lock` is still live.
    EXPECT_TRUE(mu.TryLock());
    mu.Unlock();
  }
  // And the destructor must not have double-unlocked.
  EXPECT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(SharedMutexTest, ManyReadersOneWriter) {
  SharedMutex mu;
  int value = 0;
  constexpr int kReaders = 4;
  constexpr int kWrites = 500;
  std::vector<std::thread> threads;
  std::vector<int> observed_bad(kReaders, 0);
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      for (int i = 0; i < kWrites; ++i) {
        ReaderMutexLock lock(mu);
        // Writers add 2 under the exclusive lock, so a reader must never
        // observe an odd value.
        if (value % 2 != 0) ++observed_bad[static_cast<size_t>(r)];
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kWrites; ++i) {
      WriterMutexLock lock(mu);
      ++value;
      ++value;
    }
  });
  for (std::thread& thread : threads) thread.join();
  for (int bad : observed_bad) EXPECT_EQ(bad, 0);
  EXPECT_EQ(value, 2 * kWrites);
}

TEST(CondVarTest, WaitWakesOnNotifyOne) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread waker([&] {
    MutexLock lock(mu);
    ready = true;
    cv.NotifyOne();
  });
  {
    MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
    EXPECT_TRUE(ready);
  }
  waker.join();
}

TEST(CondVarTest, NotifyAllWakesEveryWaiter) {
  Mutex mu;
  CondVar cv;
  bool go = false;
  int awake = 0;
  constexpr int kWaiters = 6;
  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      MutexLock lock(mu);
      while (!go) cv.Wait(mu);
      ++awake;
    });
  }
  {
    MutexLock lock(mu);
    go = true;
  }
  cv.NotifyAll();
  for (std::thread& waiter : waiters) waiter.join();
  MutexLock lock(mu);
  EXPECT_EQ(awake, kWaiters);
}

TEST(CondVarTest, ProducerConsumerHandoff) {
  // A two-thread ping-pong: each side waits for the other's token. Under
  // TSan this exercises the Wait/Notify paths for missed-wakeup races.
  Mutex mu;
  CondVar cv;
  int turn = 0;
  constexpr int kRounds = 200;
  std::thread partner([&] {
    for (int i = 0; i < kRounds; ++i) {
      MutexLock lock(mu);
      while (turn % 2 != 1) cv.Wait(mu);
      ++turn;
      cv.NotifyOne();
    }
  });
  for (int i = 0; i < kRounds; ++i) {
    MutexLock lock(mu);
    while (turn % 2 != 0) cv.Wait(mu);
    ++turn;
    cv.NotifyOne();
  }
  partner.join();
  MutexLock lock(mu);
  EXPECT_EQ(turn, 2 * kRounds);
}

}  // namespace
}  // namespace daspos
