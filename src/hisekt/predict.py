"""Structured prompt assembly, LLM invocation, and prediction parsing.

A prompt has three fixed blocks - target student, target question, similar
students - plus a task block that pins the reply format.  Ablation masks
remove the similar-students block (``SimU``) or every ability/difficulty/
discrimination field (``IRT``).  Floats are rendered with ``repr`` so a
parser recovers every field value exactly; the offline mock backend relies
on that to answer prompts deterministically from their text alone.

:func:`build_prompt` reads the dataset's columns: a student's history rows and
overall accuracy come from its run of ``d.by_student("train")``, and its
accuracy on a KC from :func:`~hisekt.retrieval.student_tables`, the one
per-student train summary, which peer retrieval reads too.  A student with no
train row, or in no row, shows no history, overall accuracy 0.5 and KC
accuracy ``none``.  A prompt is put together from
block texts: the target-student block, rendered once per (student, window,
IRT shown), each peer entry, rendered once per (peer, target KC, IRT shown),
and the question block, rendered once per (student, question, IRT shown), are
kept in the dataset's memo for the model they were rendered with, whose tables
are read-only, so an entry cannot go stale.  Prompts of one student share its
block, peers recur across the targets of a question, and the ablation variants
of a run share each target's question block.

The mock backend reads a rendered prompt with :func:`_mock_fields`.  It finds
the blocks with ``str.find`` and reads only the lines the reply formula uses:
the target's id and ability, the question block and each peer's two accuracy
lines; history rows are skipped unread.  A prompt it cannot read raises
``TransportError("mock transport cannot read this prediction prompt: ...")``
naming the missing or unparsable field, so the ``predict`` stage fails rather
than answer from a default.  :func:`mock_reply` is the one reply formula.

A reply is read by :func:`_parse_reply`, which finds its block with
``str.find`` (the first ``REPLY_OPEN``, then the first ``REPLY_CLOSE`` after
it) and reads the three field lines with patterns compiled once.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import Dataset, code_of
from .errors import PredictionError, TransportError
from .irt import IrtModel, probability
from .llm import LlmClient
from .retrieval import student_tables

logger = logging.getLogger(__name__)

MASK_SIMU = "SimU"
MASK_IRT = "IRT"
DEFAULT_WINDOW = 20
PEER_WEIGHT = 0.3
PREDICTION_PROMPT_HEADER = "### ANSWER PREDICTION TASK ###"
REPLY_OPEN = "<<<PREDICTION"
REPLY_CLOSE = "PREDICTION>>>"
_SENTENCE_END = re.compile(r"[.!?](?=\s|$)")
_NO_ROWS = np.zeros(0, dtype=np.intp)


def count_sentences(text: str) -> int:
    """Sentences are delimited by . ! ? followed by whitespace or end of text."""
    return len(_SENTENCE_END.findall(text.strip()))


TASK_BLOCK = "\n".join(
    [
        "=== TASK ===",
        "Decide whether the target student answers the target question correctly,",
        "then explain the decision in a three-sentence report.",
        "Reply with exactly this block:",
        REPLY_OPEN,
        "outcome: correct|wrong",
        "confidence: <number between 0 and 1>",
        "report: <exactly three sentences>",
        REPLY_CLOSE,
    ]
)


@dataclass(frozen=True)
class PromptBundle:
    """One prediction prompt as its rendered blocks; ``text`` joins them between the fixed header
    and task block.  ``peers_block`` is None under the ``SimU`` mask."""

    target_block: str
    question_block: str
    peers_block: str | None

    @property
    def text(self) -> str:
        blocks = [PREDICTION_PROMPT_HEADER, self.target_block, self.question_block]
        if self.peers_block is not None:
            blocks.append(self.peers_block)
        blocks.append(TASK_BLOCK)
        return "\n".join(blocks)


@dataclass(frozen=True)
class Prediction:
    outcome: str
    confidence: float
    report: str
    p_correct: float

    def __post_init__(self):
        if self.outcome not in ("correct", "wrong"):
            raise ValueError(f"outcome must be correct/wrong, got {self.outcome!r}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must lie in [0, 1]")
        expected = self.confidence if self.outcome == "correct" else 1.0 - self.confidence
        if abs(self.p_correct - expected) > 1e-9:
            raise ValueError("p_correct is inconsistent with outcome/confidence")

    @classmethod
    def build(cls, outcome: str, confidence: float, report: str) -> "Prediction":
        p_correct = confidence if outcome == "correct" else 1.0 - confidence
        return cls(outcome, confidence, report, p_correct)


def is_prediction_prompt(text: str) -> bool:
    return text.startswith(PREDICTION_PROMPT_HEADER)


def _train_run(d: Dataset, student: str) -> np.ndarray:
    """The time-ordered indices of ``student``'s train rows; none for one without train rows or
    in no row of ``d``."""
    return d.by_student("train").get(student, _NO_ROWS)


def _kc_accuracy(d: Dataset, student: str, kc: str) -> float | None:
    """``student``'s train accuracy on ``kc``, read from :func:`~hisekt.retrieval.student_tables`;
    None without a train row on it."""
    row = code_of(d.students(), student)
    k = code_of(d.kcs(), kc)
    t = student_tables(d)
    return t.kc_accuracy[row, k].item() if row >= 0 and t.has_kc[row, k] else None


def _rendered(d: Dataset, m: IrtModel) -> tuple[dict[tuple[str, int, bool], str], dict[tuple[str, str, bool], str],
                                                 dict[tuple[str, str, bool], str]]:
    """The rendered text of ``m`` over ``d``: target blocks by (student, window, IRT shown), peer
    entries by (peer, target KC, IRT shown) and question blocks by (student, question, IRT shown).
    Kept in the dataset's memo with the model it last rendered with, so it dies with the dataset
    and starts cold for another model.  A model's tables are read-only, so no entry can go stale."""
    memo = d._memo.get("rendered")
    if memo is None or memo[0] is not m:
        memo = d._memo["rendered"] = (m, {}, {}, {})
    return memo[1:]


def _target_block(u: str, window: int, irt: bool, m: IrtModel, d: Dataset) -> str:
    run = _train_run(d, u)
    rows = run[max(len(run) - window, 0):]
    lines = ["=== TARGET STUDENT ===", f"student_id: {u}"]
    if irt:
        lines.append(f"ability: {m.theta[u]!r}")
        lines.append(f"ability_level: {m.ability_level[u].label}")
    lines.append(f"recent_interactions: {len(rows)}")
    for q, k, correct, timestamp in zip(*(c[rows].tolist() for c in (d.question, d.kc_set, d.correct, d.timestamp))):
        qid = d.questions()[q]
        entry = f"  - question: {qid} | kcs: {';'.join(d.kc_set_ids[k])} | correct: {correct} | timestamp: {timestamp}"
        if irt:
            entry += (f" | difficulty: {m.diff[qid]!r} | discrimination: {m.disc[qid]!r}"
                      f" | difficulty_level: {m.difficulty_level[qid].label}")
        lines.append(entry)
    return "\n".join(lines)


def _peer_entry(peer_id: str, target_kc: str, irt: bool, m: IrtModel, d: Dataset) -> str:
    run = _train_run(d, peer_id)
    accuracy = _kc_accuracy(d, peer_id, target_kc)
    at, kcs = d.row_kcs(run)
    history = run[at[kcs == code_of(d.kcs(), target_kc)]]
    answers = d.correct[run].tolist()
    overall = sum(answers) / len(answers) if answers else 0.5
    lines = [f"peer: {peer_id}"]
    if irt:
        lines.append(f"  ability: {m.theta[peer_id]!r}")
        lines.append(f"  ability_level: {m.ability_level[peer_id].label}")
    lines.append(f"  target_kc_accuracy: {'none' if accuracy is None else repr(accuracy)}")
    lines.append(f"  overall_accuracy: {overall!r}")
    lines.append(f"  target_kc_history: {len(history)}")
    for q, correct, timestamp in zip(*(c[history].tolist() for c in (d.question, d.correct, d.timestamp))):
        lines.append(f"    - question: {d.questions()[q]} | correct: {correct} | timestamp: {timestamp}")
    return "\n".join(lines)


def _question_block(u: str, q: str, target_kc: str, irt: bool, m: IrtModel, d: Dataset) -> str:
    accuracy = _kc_accuracy(d, u, target_kc)
    lines = [
        "=== TARGET QUESTION ===",
        f"question_id: {q}",
        f"kcs: {';'.join(sorted(d.question_kcs()[q]))}",
        f"target_kc: {target_kc}",
        f"student_accuracy_on_target_kc: {'none' if accuracy is None else repr(accuracy)}",
    ]
    if irt:
        lines.append(f"difficulty: {m.diff[q]!r}")
        lines.append(f"discrimination: {m.disc[q]!r}")
        lines.append(f"difficulty_level: {m.difficulty_level[q].label}")
        if q in m.cold_start_questions:
            lines.append("cold_start: true")
    return "\n".join(lines)


def build_prompt(
    u: str,
    q: str,
    peers: Sequence[str],
    m: IrtModel,
    d: Dataset,
    mask: frozenset[str] | set[str] = frozenset(),
    window: int = DEFAULT_WINDOW,
) -> PromptBundle:
    """Assemble the three prompt blocks for one (student, question) target.

    ``peers`` is the ordered Top-S list; it may be empty.  ``window`` is the
    number of the target's latest train rows shown (0 shows none).  ``m``
    must cover the target, every peer and every question shown, as a model
    from :func:`hisekt.irt.fit` covers every id of its dataset: a missing id
    raises KeyError.  A question in ``m.cold_start_questions`` renders a
    ``cold_start: true`` line.  The target block, each peer entry and the
    question block are rendered once per key and memoized.
    """
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    irt = MASK_IRT not in mask
    target_kc = min(d.question_kcs()[q])
    targets, peer_entries, questions = _rendered(d, m)
    key = (u, window, irt)
    target = targets.get(key)
    if target is None:
        target = targets[key] = _target_block(u, window, irt, m, d)
    key = (u, q, irt)
    question = questions.get(key)
    if question is None:
        question = questions[key] = _question_block(u, q, target_kc, irt, m, d)
    peers_block = None
    if MASK_SIMU not in mask:
        entries = []
        for peer_id in peers:
            key = (peer_id, target_kc, irt)
            entry = peer_entries.get(key)
            if entry is None:
                entry = peer_entries[key] = _peer_entry(peer_id, target_kc, irt, m, d)
            entries.append(entry)
        peers_block = "\n".join(["=== SIMILAR STUDENTS ===", f"peer_count: {len(entries)}", *entries])
    return PromptBundle(target, question, peers_block)


# -- prediction backends ------------------------------------------------------


def _parse_scalar(raw: str) -> float | None:
    return None if raw == "none" else float(raw)


def _parse_count(raw: str) -> int:
    """A count in ASCII digits, as rendered; int() also takes " 3", "+3", "1_0" and non-ASCII digits."""
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError
    return int(raw)


def _unreadable(what: str) -> TransportError:
    return TransportError(f"mock transport cannot read this prediction prompt: {what}")


def _value(key: str, raw: str, parse=float):
    """``raw``, the value of a ``key`` line, read by ``parse``; TransportError naming the line if it cannot be."""
    try:
        return parse(raw)
    except ValueError:
        raise _unreadable(f"{key} {raw!r}") from None


_STUDENT_ID_AT = f"{PREDICTION_PROMPT_HEADER}\n=== TARGET STUDENT ===\nstudent_id: "
_QUESTION_HEADER = "\n=== TARGET QUESTION ===\n"
_PEERS_HEADER = "\n=== SIMILAR STUDENTS ===\n"
_TASK_HEADER = "\n=== TASK ===\n"
_PEER_COUNT = "peer_count: "
_PEER_KC_ACCURACY = "\n  target_kc_accuracy: "
_PEER_OVERALL_ACCURACY = "\n  overall_accuracy: "


def _mock_fields(text: str) -> dict:
    """The fields :func:`mock_reply` reads from a rendered prediction prompt, found without reading
    history rows.  Raises TransportError naming the first field that is missing or does not parse.

    Headers and peer accuracy lines are found with ``str.find``: each starts a line with a fixed
    prefix that no other rendered line starts with, since every id follows a key on its line.
    ``ability``, ``difficulty`` and ``discrimination`` are all present or, under the IRT mask, all
    absent; each peer's ``target_kc_accuracy`` line is followed by its ``overall_accuracy`` line;
    and as many peers are read as ``peer_count`` says.
    """
    if not text.startswith(_STUDENT_ID_AT):
        raise _unreadable("no student_id line")
    question_at = text.find(_QUESTION_HEADER)
    task_at = text.find(_TASK_HEADER, question_at + 1)
    if question_at < 0 or task_at < 0:
        raise _unreadable("no target question block followed by a task block")
    at = len(_STUDENT_ID_AT)
    end = text.find("\n", at)
    fields: dict = {"target_student": text[at:end], "peers": None}
    if text.startswith("ability: ", end + 1):
        fields["theta"] = _value("ability", text[end + len("\nability: ") : text.find("\n", end + 1)])
    peers_at = text.find(_PEERS_HEADER, question_at + 1, task_at)
    question_block = text[question_at + len(_QUESTION_HEADER) : task_at if peers_at < 0 else peers_at]
    given = dict(line.partition(": ")[::2] for line in question_block.split("\n"))
    for key in ("question_id", "target_kc", "student_accuracy_on_target_kc"):
        if key not in given:
            raise _unreadable(f"no {key} line")
    fields["question_id"] = given["question_id"]
    fields["target_kc"] = given["target_kc"]
    fields["student_kc_accuracy"] = _value("student_accuracy_on_target_kc", given["student_accuracy_on_target_kc"],
                                           _parse_scalar)
    irt = "theta" in fields
    if irt != ("difficulty" in given) or irt != ("discrimination" in given):
        raise _unreadable("ability, difficulty and discrimination are neither all present nor all absent")
    if irt:
        fields["difficulty"] = _value("difficulty", given["difficulty"])
        fields["discrimination"] = _value("discrimination", given["discrimination"])
    if peers_at >= 0:
        at = peers_at + len(_PEERS_HEADER)
        end = text.find("\n", at)
        if not text.startswith(_PEER_COUNT, at):
            raise _unreadable("no peer_count line")
        count = _value("peer_count", text[at + len(_PEER_COUNT) : end], _parse_count)
        peers = fields["peers"] = []
        at = text.find(_PEER_KC_ACCURACY, end, task_at)
        while at >= 0:
            at += len(_PEER_KC_ACCURACY)
            end = text.find("\n", at)
            if not text.startswith(_PEER_OVERALL_ACCURACY, end):
                raise _unreadable(f"no overall_accuracy line after target_kc_accuracy {text[at:end]!r}")
            overall_at = end + len(_PEER_OVERALL_ACCURACY)  # the line right after
            overall_end = text.find("\n", overall_at)
            peers.append(
                {
                    "target_kc_accuracy": _value("target_kc_accuracy", text[at:end], _parse_scalar),
                    "overall_accuracy": _value("overall_accuracy", text[overall_at:overall_end]),
                }
            )
            at = text.find(_PEER_KC_ACCURACY, overall_end, task_at)
        if len(peers) != count:
            raise _unreadable(f"peer_count {count}, but {len(peers)} peers")
    return fields


def mock_reply(fields: dict) -> str:
    """The mock's reply to a prompt whose fields are ``fields``, as :func:`_mock_fields` names them.

    The base probability is the response-model value for the target pair; the
    mean peer accuracy on the target KC pulls it with weight 0.3 when a peer
    block is present.  With ability/difficulty masked, the student's own
    accuracy on the target KC stands in for the base.
    """
    if "theta" in fields:
        base = probability(fields["theta"], fields["discrimination"], fields["difficulty"])
    else:
        kc_acc = fields["student_kc_accuracy"]
        base = kc_acc if kc_acc is not None else 0.5
    peer_values = []
    for peer in fields["peers"] or ():
        acc = peer["target_kc_accuracy"]
        peer_values.append(peer["overall_accuracy"] if acc is None else acc)
    p, peer_mean = base, None
    if peer_values:
        peer_mean = sum(peer_values) / len(peer_values)
        p = (1.0 - PEER_WEIGHT) * base + PEER_WEIGHT * peer_mean

    student, question, kc = fields["target_student"], fields["question_id"], fields["target_kc"]
    outcome = "correct" if p >= 0.5 else "wrong"
    confidence = max(p, 1.0 - p)
    first = f"The baseline success estimate for student {student} on question {question} is {base:.4f}."
    if peer_mean is not None:
        second = (
            f"A panel of {len(peer_values)} similar students averages {peer_mean:.4f} accuracy"
            f" on concept {kc}, moving the estimate to {p:.4f}."
        )
    else:
        second = f"No similar-student evidence was available, so the estimate stays at {p:.4f}."
    third = f"The predicted outcome is {outcome} with confidence {confidence:.4f}."
    report = f"{first} {second} {third}"
    return "\n".join(
        [REPLY_OPEN, f"outcome: {outcome}", f"confidence: {confidence!r}", f"report: {report}", REPLY_CLOSE]
    )


def mock_prediction_reply(prompt: str) -> str:
    """Answer a rendered prediction prompt deterministically (mock transport).

    Only the prompt text is read, so a mask hides from the mock exactly what
    it hides from an LLM.
    """
    return mock_reply(_mock_fields(prompt))


_OUTCOME = re.compile(r"^outcome:\s*(correct|wrong)\s*$", re.M)
_CONFIDENCE = re.compile(r"^confidence:\s*([-+0-9.eE]+)\s*$", re.M)
_REPORT = re.compile(r"^report:\s*(.+)$", re.M | re.S)


def _parse_reply(reply: str) -> Prediction:
    """The prediction in the first ``REPLY_OPEN`` ... ``REPLY_CLOSE`` block of ``reply``, the close
    being the first one after the open ends; the text between them is stripped of whitespace, as
    ``str.strip`` and the regex ``\\s`` judge it alike.  Raises ValueError naming what is wrong."""
    start = reply.find(REPLY_OPEN)
    end = reply.find(REPLY_CLOSE, start + len(REPLY_OPEN)) if start >= 0 else -1
    if end < 0:
        raise ValueError("no prediction block in reply")
    body = reply[start + len(REPLY_OPEN) : end].strip()
    outcome_m = _OUTCOME.search(body)
    confidence_m = _CONFIDENCE.search(body)
    report_m = _REPORT.search(body)
    if not (outcome_m and confidence_m and report_m):
        raise ValueError("prediction block is missing fields")
    confidence = float(confidence_m.group(1))
    if not 0.0 <= confidence <= 1.0:
        logger.warning("confidence %s outside [0, 1]; clamped", confidence)
        confidence = min(max(confidence, 0.0), 1.0)
    report = report_m.group(1).strip()
    if count_sentences(report) != 3:
        raise ValueError(f"report must have exactly 3 sentences, got {count_sentences(report)}")
    return Prediction.build(outcome_m.group(1), confidence, report)


def predict(p: PromptBundle, client: LlmClient) -> Prediction:
    """One-pass prediction + report through the client, retrying malformed replies."""
    prompt = p.text
    transcript: list[str] = []
    attempts = max(client.max_retries, 1)
    for attempt in range(attempts):
        reply = client.complete(prompt)
        transcript.append(reply)
        try:
            return _parse_reply(reply)
        except ValueError as exc:
            error = exc
            if attempt + 1 < attempts:  # after the last send the error below carries the transcript
                logger.warning("malformed prediction reply (%s); retrying", exc)
    raise PredictionError(
        "prediction backend returned no parsable reply after retries",
        transcript="\n---\n".join(transcript),
    ) from error
