/* Moving the benchmark's one thread between the CPUs it may run on.

   perfbench_pin_cpu(k) pins the calling thread to the (k mod N)-th CPU
   of the affinity mask the process started with (N CPUs) and returns
   true; it returns false, and changes nothing, when N <= 1, when the
   call fails, or on a system without sched_setaffinity. */

#define _GNU_SOURCE
#include <caml/mlvalues.h>

#ifdef __linux__
#include <sched.h>

static int n_cpus = -1;
static int cpu_ids[CPU_SETSIZE];

static void read_mask(void)
{
  cpu_set_t mask;
  n_cpus = 0;
  if (sched_getaffinity(0, sizeof mask, &mask) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; c++)
    if (CPU_ISSET(c, &mask)) cpu_ids[n_cpus++] = c;
}

value perfbench_pin_cpu(value k)
{
  cpu_set_t one;
  if (n_cpus < 0) read_mask();
  if (n_cpus <= 1) return Val_false;
  CPU_ZERO(&one);
  CPU_SET(cpu_ids[Long_val(k) % n_cpus], &one);
  return Val_bool(sched_setaffinity(0, sizeof one, &one) == 0);
}

#else

value perfbench_pin_cpu(value k)
{
  (void)k;
  return Val_false;
}

#endif
