// Fixture: the rule reads only src/ headers.

int benchOnly();
