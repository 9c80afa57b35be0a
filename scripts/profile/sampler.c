/* A SIGPROF sampler to LD_PRELOAD into one process; scripts/profile.sh
 * drives it. Every millisecond of CPU time (the kernel delivers at most
 * one signal a scheduler tick) it records where the interrupted thread
 * was and the chain of calls that led there; at exit it writes one line
 * per sample to samples.txt in the working directory:
 *     <address in the executable> <library symbol or -> <caller> <caller's caller> ...
 * every address hex, relative to the executable's load bias. (x86-64
 * Linux.) A sample inside a shared library (libc's memcpy, malloc, ...)
 * is given the address it will return to in the executable, so it counts
 * for the caller. That return address is the first word on the stack,
 * between the stack pointer and the caller's frame pointer, that points
 * into the executable's code: the executable is built with frame
 * pointers, a library leaf routine keeps none.
 *
 * The callers come from the frame-pointer chain: each frame holds the
 * caller's frame pointer and, above it, the address the call returns to.
 * The walk reads only words of the main thread's stack between the stack
 * pointer and the stack's top, each frame above the last, so a register
 * that is not a frame pointer (library code may use it freely) ends the
 * walk instead of faulting; it also ends at the first return address
 * outside the executable. Samples of other threads carry no callers. */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 20)
#define INTERVAL_US 1000
#define SCAN_WORDS 256
#define MAX_DEPTH 96
#define MAX_FRAMES (1 << 22) /* callers of all samples together */

static uintptr_t bias, lo, hi; /* the executable's load bias and code */
static uintptr_t stack_lo, stack_hi; /* the main thread's stack */
static uintptr_t pcs[MAX_SAMPLES], owners[MAX_SAMPLES];
static uint32_t depths[MAX_SAMPLES], firsts[MAX_SAMPLES];
static uintptr_t frames[MAX_FRAMES]; /* return addresses, minus one */
static size_t taken, framed;

static int in_exe(uintptr_t a) { return a >= lo && a < hi; }

static int find_code(struct dl_phdr_info *info, size_t size, void *data) {
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type == PT_LOAD && (ph->p_flags & PF_X)) {
            bias = info->dlpi_addr;
            lo = bias + ph->p_vaddr;
            hi = lo + ph->p_memsz;
        }
    }
    return 1; /* the first object listed is the executable */
}

static void on_prof(int sig, siginfo_t *info, void *context) {
    mcontext_t *m = &((ucontext_t *)context)->uc_mcontext;
    uintptr_t pc = m->gregs[REG_RIP], owner = pc;
    uintptr_t *sp = (uintptr_t *)m->gregs[REG_RSP], *fp = (uintptr_t *)m->gregs[REG_RBP];
    if (!in_exe(pc)) {
        owner = 0;
        for (int i = 0; i < SCAN_WORDS && !owner && (fp <= sp || sp + i < fp); i++)
            if (in_exe(sp[i])) owner = sp[i] - 1; /* inside the call */
    }
    size_t k = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (k >= MAX_SAMPLES) return;
    pcs[k] = pc, owners[k] = owner, depths[k] = 0;
    uintptr_t at = (uintptr_t)sp;
    if (at < stack_lo || at >= stack_hi) return;
    uintptr_t callers[MAX_DEPTH];
    uint32_t depth = 0;
    for (uintptr_t f = (uintptr_t)fp; depth < MAX_DEPTH; depth++) {
        if (f < at || f % 8 || f + 16 > stack_hi) break;
        uintptr_t ret = ((uintptr_t *)f)[1];
        if (!in_exe(ret)) break;
        callers[depth] = ret - 1; /* inside the call */
        at = f + 16;
        f = ((uintptr_t *)f)[0];
    }
    size_t first = __atomic_fetch_add(&framed, depth, __ATOMIC_RELAXED);
    if (first + depth > MAX_FRAMES) return;
    memcpy(&frames[first], callers, depth * sizeof *callers);
    firsts[k] = (uint32_t)first, depths[k] = depth;
}

/* The main thread's stack, from the thread itself before any sample. */
static void find_stack(void) {
    pthread_attr_t attr;
    void *addr;
    size_t size;
    if (pthread_getattr_np(pthread_self(), &attr)) return;
    if (!pthread_attr_getstack(&attr, &addr, &size))
        stack_lo = (uintptr_t)addr, stack_hi = stack_lo + size;
    pthread_attr_destroy(&attr);
}

__attribute__((constructor)) static void start(void) {
    dl_iterate_phdr(find_code, NULL);
    find_stack();
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, INTERVAL_US}, {0, INTERVAL_US}};
    setitimer(ITIMER_PROF, &every, NULL);
}

/* The library routine at pc. The string routines are IFUNCs whose chosen
 * implementations (the AVX2 memmove, ...) have no exported name, but
 * dlsym resolves each to the implementation this process uses, so the
 * nearest such start below pc names it. Any other routine the library
 * does not export (malloc's internals) is named by the library's file. */
static const char *routine(uintptr_t pc) {
    static const char *ifuncs[] = {"memcpy", "memmove", "memset", "memcmp", "strlen"};
    Dl_info lib = {0};
    if (dladdr((void *)pc, &lib) && lib.dli_sname) return lib.dli_sname;
    const char *name = lib.dli_fname ? strrchr(lib.dli_fname, '/') : NULL;
    name = name ? name + 1 : "?";
    uintptr_t at = 0;
    for (size_t i = 0; i < sizeof ifuncs / sizeof *ifuncs; i++) {
        uintptr_t start = (uintptr_t)dlsym(RTLD_DEFAULT, ifuncs[i]);
        if (start > at && start <= pc && pc - start < 4096) at = start, name = ifuncs[i];
    }
    return name;
}

__attribute__((destructor)) static void finish(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    FILE *out = fopen("samples.txt", "w");
    if (!out) return;
    size_t n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (size_t k = 0; k < n; k++) {
        const char *sym = pcs[k] == owners[k] ? "-" : routine(pcs[k]);
        /* An owner of 0 (no caller found) prints as 0. */
        fprintf(out, "%lx %s", (unsigned long)(owners[k] ? owners[k] - bias : 0), sym);
        for (uint32_t d = 0; d < depths[k]; d++)
            fprintf(out, " %lx", (unsigned long)(frames[firsts[k] + d] - bias));
        fputc('\n', out);
    }
    fclose(out);
}
