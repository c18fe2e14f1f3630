(** A persistent KeyNote session, as kept by the DisCFS daemon:
    local policy plus every credential successfully submitted over
    RPC (paper §5).

    The credentials live in an indexed store. Each entry keeps the
    fingerprint computed once at admission, and three indexes find
    it: by fingerprint (dedup, revocation), by normalised authorizer
    (key revocation) and, in reverse, by every normalised principal
    its licensees name. A {!query} follows the reverse index back
    from the requesters and evaluates only the assertions that can
    reach them, so its cost follows the requester's delegation chain,
    not the size of the store. Its answer, trace included, equals
    {!Compliance.check} over [policy] and [credentials]. *)

type t

val create :
  values:string list -> ?policy:Assertion.t list -> ?trace:Trace.t -> unit -> t
(** [values] is the ordered compliance-value set, lowest first, e.g.
    [["false"; "X"; "W"; "WX"; "R"; "RX"; "RW"; "RWX"]]. Each
    {!query} is recorded on [trace] as a ["keynote.compliance"]
    span. *)

val add_policy : t -> Assertion.t -> unit

val add_credential : t -> Assertion.t -> (unit, string) result
(** Verify the signature and add; duplicates (same fingerprint) are
    accepted idempotently. *)

val add_credential_text : t -> string -> (unit, string) result
(** Parse then {!add_credential}. *)

val remove_credential : t -> fingerprint:string -> bool
(** Drop a credential by fingerprint; returns whether it was
    present. Supports the paper's server-side revocation. *)

val remove_authored_by : t -> Ast.principal -> int
(** Drop every credential whose authorizer is the given principal
    (compared normalised); returns how many were dropped. Supports
    key revocation. *)

val find_credential : t -> fingerprint:string -> Assertion.t option

val credentials : t -> Assertion.t list
(** Admitted credentials in admission order. *)

val count : t -> int
(** [List.length (credentials t)], kept as a counter. *)

val policy : t -> Assertion.t list
val values : t -> string list

val query :
  t -> requesters:Ast.principal list -> attributes:(string * string) list -> Compliance.result
(** Evaluate against the indexes, over only the assertions whose
    licensees reach back to a requester. *)
