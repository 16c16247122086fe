"""Fixed reference work for the benchmark's host-speed correction.

    python3 perfbench/reference.py

Pure-Python integer arithmetic, dict and tuple traffic and sorting, of the
kind the kromatic layers do, but independent of the program: its running
time changes only with the speed of the host.  The benchmark runs it in a
fresh interpreter after every job and divides each job's times by the
times of the reference runs on either side of it.  It prints a checksum,
which the benchmark compares with `CHECKSUM`, so that a run cut short
cannot pass for a fast one.
"""
ROUNDS = 2
SIZE = 30000
MOD = 1000000007
CHECKSUM = 32316755  # what work() returns


def work():
    checksum = 0
    x = 1
    for _ in range(ROUNDS):
        table = {}
        for i in range(SIZE):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            key = (x & 0xFFF, (x >> 12) & 0xF, i & 1)
            table[key] = table.get(key, 0) + (x >> 16)
        ranked = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
        total = 1
        for key, value in ranked[::97]:
            total = (total * (value + 1) + sum(key)) % MOD
        checksum = (checksum * 31 + total) % MOD
    return checksum


if __name__ == "__main__":
    print(work())
