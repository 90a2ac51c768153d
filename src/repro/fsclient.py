"""What the HopsFS and the CephFS client have in common.

Both hand a driver the same surface: ``run(OpType, kwargs)`` returns the
generator that runs one metadata operation, with the caller's ``kwargs``
dict handed to the request loop as it is (drivers pass the workload's
dict), and ``op(OpType, **kwargs)``, ``mkdir`` / ``stat`` / ``rename`` ...
are plain stubs over it.  A subclass supplies ``env``, ``addr``, ``az``
and ``_request_loop(op, kwargs, span)``, the generator that talks to its
metadata servers.
"""

from __future__ import annotations

from .errors import FsError, HostUnreachableError, RpcTimeoutError
from .types import OpType

__all__ = ["FsClient"]


class FsClient:
    """The client surface: one op entry, one traced envelope, plain stubs."""

    _span_name = "client.op"
    # Fail-overs of the op that finished last on this stub; drivers read it
    # into OpResult.retries the moment their ``yield from`` returns.  Only a
    # client that can fail over (HopsFS) ever sets it.
    last_op_failures = 0

    def run(self, op: OpType, kwargs: dict, obs_parent=None):
        """The generator that runs one metadata operation (``yield from`` it).

        A plain function: untraced, it hands back the request loop's own
        generator, so a resume crosses no wrapper frame.  ``kwargs`` is the
        op's arguments, not copied.  ``obs_parent`` nests this op's span
        under an enclosing data-path span when tracing.
        """
        obs = self.env.obs
        if obs is None:
            return self._request_loop(op, kwargs, None)
        return self._traced_op(obs, op, kwargs, obs_parent)

    def _traced_op(self, obs, op: OpType, kwargs, parent):
        span = obs.tracer.start(
            self._span_name, parent=parent, op=op.value, host=str(self.addr), az=self.az,
        )
        try:
            result = yield from self._request_loop(op, kwargs, span)
            span.tags["ok"] = True
            return result
        except (FsError, RpcTimeoutError, HostUnreachableError) as exc:
            # Terminal failures are tagged too, so trace breakdowns count them.
            span.tags["ok"] = False
            span.tags["error"] = type(exc).__name__
            raise
        finally:
            # A request loop that can fail over stored its count in
            # ``last_op_failures`` as it exited, just now.
            obs.tracer.finish(span, retries=self.last_op_failures)

    # Stubs: each returns ``run``'s generator itself, so they add no frame.
    def op(self, op: OpType, obs_parent=None, **kwargs):
        return self.run(op, kwargs, obs_parent)

    def mkdir(self, path: str):
        return self.run(OpType.MKDIR, {"path": path})

    def read(self, path: str):
        return self.run(OpType.READ_FILE, {"path": path})

    def stat(self, path: str):
        return self.run(OpType.STAT, {"path": path})

    def exists(self, path: str):
        return self.run(OpType.EXISTS, {"path": path})

    def listdir(self, path: str):
        return self.run(OpType.LIST_DIR, {"path": path})

    def delete(self, path: str, recursive: bool = False):
        return self.run(OpType.DELETE_FILE, {"path": path, "recursive": recursive})

    def rename(self, src: str, dst: str):
        return self.run(OpType.RENAME, {"src": src, "dst": dst})

    def chmod(self, path: str, permission: int = 0o644):
        return self.run(OpType.CHMOD, {"path": path, "permission": permission})
