"""A stand-in for ThreadPoolExecutor that runs each task inline, at submit."""
from concurrent.futures import Future


class InlinePool:
    def __init__(self, workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        done = Future()
        done.set_result(fn(*args))
        return done
