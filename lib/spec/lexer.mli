(** Tokenizer for the spec grammar of paper Fig. 3.

    Identifiers follow [[A-Za-z0-9_][A-Za-z0-9_.-]*]: they may contain dots
    and dashes but may not start with one, which is what lets [-variant]
    after whitespace disambiguate from a dash inside a version or package
    name. *)

type token =
  | Id of string
  | At  (** [@] — version list follows *)
  | Plus  (** [+variant] *)
  | Minus  (** [-variant] *)
  | Tilde  (** [~variant] *)
  | Percent  (** [%compiler] *)
  | Equals  (** [=architecture] *)
  | Caret  (** [^dependency] *)
  | Comma  (** version list separator *)
  | Colon  (** version range separator *)

val token_to_string : token -> string

val tokenize : string -> (token list, string) result
(** Whitespace separates tokens but is otherwise insignificant. [Error]
    carries a message naming the offending character and position. *)
