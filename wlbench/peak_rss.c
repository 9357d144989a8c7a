/* peak_rss PROG ARG...: runs PROG with its standard streams on
   /dev/null, waits for it, and prints "<peak RSS in KiB> <exit code>".

   A child's ru_maxrss also counts the memory image it was spawned from
   (Linux records the old image's peak at exec), so a wlcq process
   spawned straight from the benchmark would report the benchmark's own
   footprint.  Spawned from this small program, it reports its own.
   The exit code is 125 when PROG cannot be run, and 128 plus the
   signal number when it was killed. */

#include <errno.h>
#include <fcntl.h>
#include <spawn.h>
#include <stdio.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

extern char **environ;

int main(int argc, char **argv)
{
  if (argc < 2) {
    fprintf(stderr, "usage: peak_rss PROG ARG...\n");
    return 2;
  }
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  for (int fd = 0; fd <= 2; fd++)
    posix_spawn_file_actions_addopen(&fa, fd, "/dev/null", fd == 0 ? O_RDONLY : O_WRONLY, 0);
  pid_t pid;
  if (posix_spawn(&pid, argv[1], &fa, NULL, argv + 1, environ) != 0) {
    printf("0 125\n");
    return 0;
  }
  int status = 0;
  struct rusage ru;
  pid_t r;
  do {
    r = wait4(pid, &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  if (r < 0) {
    printf("0 125\n");
    return 0;
  }
  int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  printf("%ld %d\n", ru.ru_maxrss, code);
  return 0;
}
