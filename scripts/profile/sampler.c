/* A SIGPROF sampler to LD_PRELOAD into one process; scripts/profile.sh
 * drives it. Every millisecond of CPU time (the kernel delivers at most
 * one signal a scheduler tick) it records where the interrupted thread
 * was; at exit it writes one line per sample to samples.txt in the
 * working directory:
 *     <address in the executable, hex, relative to its load bias> <library symbol or ->
 * (x86-64 Linux.) A sample inside a shared library (libc's memcpy, malloc, ...) is given
 * the address it will return to in the executable, so it counts for the
 * caller. That return address is the first word on the stack, between
 * the stack pointer and the caller's frame pointer, that points into the
 * executable's code: the executable is built with frame pointers, a
 * library leaf routine keeps none. */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 20)
#define INTERVAL_US 1000
#define SCAN_WORDS 256

static uintptr_t bias, lo, hi; /* the executable's load bias and code */
static uintptr_t pcs[MAX_SAMPLES], owners[MAX_SAMPLES];
static size_t taken;

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
    if (k < MAX_SAMPLES) pcs[k] = pc, owners[k] = owner;
}

__attribute__((constructor)) static void start(void) {
    dl_iterate_phdr(find_code, NULL);
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
        fprintf(out, "%lx %s\n", (unsigned long)(owners[k] ? owners[k] - bias : 0), sym);
    }
    fclose(out);
}
