(** Deterministic seeded network-chaos plans.

    The socket layer's sibling of {!Mmap_file.Fault}: a pure function of a
    seed that tells a chaos driver {e what} to inflict on a connection and
    {e when}. Nothing here touches a socket — the module only makes the
    randomness reproducible, so a red chaos run replays bit-for-bit from
    its seed (same [RAW_NET_FAULT_SEED] → same fault sequence, across
    processes and machines; no [Random] state involved).

    A {!Stream} is a splitmix-style generator; {!fork} derives an
    independent substream from a label, so concurrent chaos clients each
    own a deterministic stream keyed by [(seed, client_id)] regardless of
    scheduling. {!plan} draws one {!action} from the configured mix — the
    socket fuzzer in [test/test_server_chaos.ml], the e26 bench and the
    [chaos] phase of [test/smoke/smoke.ml] all consume it through one
    raw-socket client ([test/chaos_client]), and the client retry layer
    borrows {!jitter} for its backoff so retry storms de-synchronize
    deterministically under test. *)

(** One thing a chaos driver does to a connection in place of (or around)
    a well-formed request. *)
type action =
  | Well_formed  (** send a valid request and read the response *)
  | Torn_write of float
      (** send a prefix of the request, stall this many seconds, then the
          rest — exercises the server's request timeout accounting *)
  | Stall of float
      (** connect (or stay connected) and send nothing for this long —
          exercises idle reaping *)
  | Disconnect_mid_request
      (** send a partial line and vanish — EOF mid-request *)
  | Disconnect_before_read
      (** send a full request and vanish without reading the response *)
  | Garbage of string  (** raw non-JSON bytes, newline-terminated *)
  | Oversized of int  (** a line of this many bytes, past the bound *)
  | Wrong_shape of string
      (** valid JSON the protocol rejects: non-object, unknown op, ... *)

module Stream : sig
  type t

  val make : seed:int -> t

  val fork : t -> label:int -> t
  (** An independent substream. [fork] does not advance [t]; the child is
      a pure function of [t]'s seed and [label]. *)

  val float : t -> float
  (** Next draw in [0, 1). Advances the stream. *)

  val int : t -> bound:int -> int
  (** Next draw in [0, bound). [bound] must be positive. *)

  val jitter : t -> float
  (** Multiplicative backoff jitter in [0.5, 1.5). *)
end

type t = {
  seed : int;
  chaos_per_request : float;
      (** probability a chaos client misbehaves on a given request
          (otherwise it sends a well-formed one) *)
  max_stall_seconds : float;  (** upper bound for torn-write/stall delays *)
  oversize_bytes : int;  (** length drawn for [Oversized] lines *)
}

val make :
  ?seed:int ->
  ?chaos_per_request:float ->
  ?max_stall_seconds:float ->
  ?oversize_bytes:int ->
  unit ->
  t

val from_env : unit -> t option
(** Reads [RAW_NET_FAULT_SEED] (int), [RAW_NET_FAULT_CHAOS] (probability,
    default 0.5), [RAW_NET_FAULT_STALL] (seconds, default 0.2) and
    [RAW_NET_FAULT_OVERSIZE] (bytes, default 2 MiB); [None] unless the
    seed is set. Mirrors {!Mmap_file.Fault.from_env}. *)

val stream : t -> client:int -> Stream.t
(** The per-client substream: pure in [(t.seed, client)]. *)

val plan : t -> Stream.t -> action
(** Draw the next action from the configured mix. The garbage /
    wrong-shape payloads are drawn from small fixed corpora inside this
    module so every protocol edge gets exercised at any seed. *)
