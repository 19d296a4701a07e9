"""Gateway configuration: one frozen dataclass.

:class:`GatewaySettings` gathers every operational knob of the gateway —
bind address, connection and in-flight caps, the admission high-water mark,
drain timeout — in one place with safe defaults::

    GatewaySettings(port=7400, max_connections=256)

Every field is validated at construction; a nonsensical value (negative
cap, zero in-flight budget) fails fast with :class:`ValueError` rather than
producing a server that accepts no work.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GatewaySettings:
    """Operational knobs for :class:`~repro.gateway.server.GatewayServer`.

    Attributes:
        host: Interface to bind; loopback by default.
        port: TCP port; ``0`` asks the OS for an ephemeral port (the bound
            port is readable from ``server.address`` after start).
        max_connections: Hard cap on simultaneously accepted connections.
            The cap-plus-first excess connection is answered with a
            ``MAXCONN`` error and closed immediately.
        max_inflight_per_conn: Per-connection budget of replies the
            gateway holds: every command's reply, data-plane, control-plane
            or error, from its arrival until the kernel has taken its bytes.
            While a connection holds that many, or has unsent bytes the
            kernel refused, the gateway simply stops reading its socket —
            TCP flow control pushes back on the sender — rather than
            erroring, so a client that pipelines without reading costs at
            most this many replies.  This is the *backpressure* mechanism.
        admission_high_water: Cluster-wide in-flight threshold
            (:attr:`~repro.cluster.ClusterEngine.pending`) above which new
            data-plane commands are *shed* with a retryable ``BUSY`` error
            instead of queued.  This is the *admission control* mechanism:
            past saturation the gateway answers fast and poorly rather than
            slowly and catastrophically.  Control-plane commands (``PING``,
            ``HEALTH``, ``STATS``) are always admitted.
        admission_low_water: Once shedding has begun, the gateway keeps
            shedding until ``pending`` drops back *below or to* this mark —
            a hysteresis band that prevents admit/shed flapping when load
            hovers at the high-water mark.  ``0`` (the default) derives the
            mark as half the high-water mark; an explicit value must sit in
            ``1..admission_high_water``.
        drain_timeout: Seconds a graceful ``close()`` waits for in-flight
            commands to finish before abandoning them.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_connections: int = 128
    max_inflight_per_conn: int = 32
    admission_high_water: int = 512
    admission_low_water: int = 0
    drain_timeout: float = 5.0

    def __post_init__(self) -> None:
        if self.port < 0 or self.port > 65535:
            raise ValueError(f"port must be in 0..65535, got {self.port!r}")
        if self.max_connections < 1:
            raise ValueError(
                f"max_connections must be >= 1, got {self.max_connections!r}"
            )
        if self.max_inflight_per_conn < 1:
            raise ValueError(
                "max_inflight_per_conn must be >= 1, "
                f"got {self.max_inflight_per_conn!r}"
            )
        if self.admission_high_water < 1:
            raise ValueError(
                f"admission_high_water must be >= 1, got {self.admission_high_water!r}"
            )
        if self.admission_low_water < 0:
            raise ValueError(
                f"admission_low_water must be >= 0, got {self.admission_low_water!r}"
            )
        if self.admission_low_water > self.admission_high_water:
            raise ValueError(
                "admission_low_water must not exceed admission_high_water, "
                f"got {self.admission_low_water!r} > {self.admission_high_water!r}"
            )
        if self.drain_timeout < 0:
            raise ValueError(f"drain_timeout must be >= 0, got {self.drain_timeout!r}")

    @property
    def low_water(self) -> int:
        """The re-admission mark: explicit, or half the high-water mark."""
        return self.admission_low_water or max(1, self.admission_high_water // 2)
