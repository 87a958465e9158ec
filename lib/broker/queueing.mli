(** Analytic queueing formulas, used to validate the broker's measured
    latency against theory: a broker ingesting a Poisson stream with a
    fixed per-message work is exactly an M/D/1 queue, so the
    Pollaczek–Khinchine mean applies. The test suite drives a
    single-topic fleet with Poisson arrivals and checks the measured mean
    sojourn against {!md1_mean_sojourn} — a cross-validation no amount of
    unit-testing the simulator against itself can provide. *)

val md1_mean_wait : utilization:float -> service_time:float -> float
(** Mean time in queue (excluding service) of an M/D/1 server:
    [ρ·s / (2·(1 - ρ))]. Raises [Invalid_argument] unless
    [0 <= utilization < 1] and [service_time >= 0]. *)

val md1_mean_sojourn : utilization:float -> service_time:float -> float
(** Mean total time in system: wait plus service. *)

val mm1_mean_sojourn : utilization:float -> service_time:float -> float
(** The M/M/1 counterpart [s / (1 - ρ)], an upper envelope for the
    deterministic-service broker. Same domain as {!md1_mean_wait}. *)

val fifo_depart : busy_until:float -> arrival:float -> work:float -> float
(** One step of a FIFO single server: a job arriving at [arrival] starts
    at [max arrival busy_until] and departs [work] later. The result is
    the server's next [busy_until]. The in-process fleet's latency pass
    and the live broker's queue model both step through this. *)
